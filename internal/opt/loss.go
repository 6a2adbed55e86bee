// Package opt is the optimization library of the reproduction: losses and
// step-size schedules, the synchronous methods SGD and SAGA, their
// asynchronous variants ASGD (Algorithm 2) and ASAGA (Algorithm 4) built on
// the ASYNC engine, the staleness-adaptive learning-rate modulation of
// Listing 1, the epoch-based variance-reduced scheme of Listing 3, and an
// Mllib-style baseline implemented directly on the synchronous RDD layer.
//
// Every method dispatches through one unified driver runtime (runtime.go):
// a solver contributes an Updater (kernel wiring plus the arithmetic of a
// single model update) and the runtime owns the collect→apply→broadcast
// loop, recorder cadence, lazy-settle scheduling, mid-run checkpointing
// (Params.CheckpointEvery / Resume), and preemption (Params.Preempt).
//
// The objective is the paper's (Eq. 3/4): the mean of a linear loss
// ℓ(x_i·w, y_i) over the rows, plus the separable penalties
// (L2/2)·‖w‖² + L1·‖w‖₁. A worker reads the model only through row dots and
// ships the loss part alone, Σ GradCoeff(x_i·w, y_i)·x_i; the penalties
// never leave the driver. Ridge follows one rule: it is applied at the
// driver's model, the model being updated — eagerly for dense payloads
// (batch·λ2·w joins the step) and lazily for sparse ones (the shrinkage
// (1−αλ2) is deferred per coordinate, lazy.go). A task's gradient may be
// stale; its ridge term never is. The ℓ1 term is a prox step at the driver.
package opt

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/la"
)

// Loss is an objective in the one form every solver runs: a linear loss
// ℓ(x·w, y), read through the row dot, plus its separable penalties.
type Loss interface {
	// Value returns ℓ(dot, y) for one row with dot = x·w.
	Value(dot, y float64) float64
	// GradCoeff returns dℓ/d(dot) at (dot, y): the row's gradient is
	// GradCoeff(x·w, y)·x, touching exactly the row's nonzeros.
	GradCoeff(dot, y float64) float64
	// Curvature bounds ℓ”(dot, y) over every dot: the data-independent
	// factor of the diagonal curvature h_j = curv·Σᵢ x_ij² the coordinate
	// methods precondition with, and of the reference solve's Lipschitz
	// step.
	Curvature() float64
	// Penalties returns the ridge and ℓ1 coefficients, amortized per row
	// over the mean objective (0, 0 for a bare loss).
	Penalties() (l2, l1 float64)
	Name() string
}

// LeastSquares is the paper's experimental objective (Eq. 3/4):
// ℓ = (x·w − y)², ∇ℓ = 2(x·w − y)x.
type LeastSquares struct{}

// Value implements Loss.
func (LeastSquares) Value(dot, y float64) float64 {
	r := dot - y
	return r * r
}

// GradCoeff implements Loss.
func (LeastSquares) GradCoeff(dot, y float64) float64 { return 2 * (dot - y) }

// Curvature implements Loss: ℓ” = 2 exactly.
func (LeastSquares) Curvature() float64 { return 2 }

// Penalties implements Loss.
func (LeastSquares) Penalties() (l2, l1 float64) { return 0, 0 }

// Name implements Loss.
func (LeastSquares) Name() string { return "least-squares" }

// Logistic is the binary logistic loss ℓ = log(1 + exp(−y·x·w)) for labels
// y ∈ {−1, +1}.
type Logistic struct{}

// Value implements Loss.
func (Logistic) Value(dot, y float64) float64 {
	m := y * dot
	// numerically stable log(1+exp(−m))
	if m > 0 {
		return math.Log1p(math.Exp(-m))
	}
	return -m + math.Log1p(math.Exp(m))
}

// GradCoeff implements Loss: ∇ℓ = −y·σ(−y·x·w)·x, with σ(−m) = 1/(1+exp(m)).
func (Logistic) GradCoeff(dot, y float64) float64 {
	s := 1.0 / (1.0 + math.Exp(y*dot))
	return -y * s
}

// Curvature implements Loss: σ(1−σ) ≤ ¼.
func (Logistic) Curvature() float64 { return 0.25 }

// Penalties implements Loss.
func (Logistic) Penalties() (l2, l1 float64) { return 0, 0 }

// Name implements Loss.
func (Logistic) Name() string { return "logistic" }

// Composite is the elastic-net objective: a bare loss plus
// (L2/2)·‖w‖² + L1·‖w‖₁. Its row methods are the inner loss's; the
// penalties are read through Penalties and applied by the driver (see the
// package comment), and a solver without a prox step refuses L1 > 0
// (rejectL1). Inner is a bare loss: an objective is checked against what an
// ObjectiveSpec resolves to (wireObjective), which refuses a nested
// Composite.
type Composite struct {
	Inner Loss
	L2    float64
	L1    float64
}

// Value implements Loss.
func (c Composite) Value(dot, y float64) float64 { return c.Inner.Value(dot, y) }

// GradCoeff implements Loss.
func (c Composite) GradCoeff(dot, y float64) float64 { return c.Inner.GradCoeff(dot, y) }

// Curvature implements Loss.
func (c Composite) Curvature() float64 { return c.Inner.Curvature() }

// Penalties implements Loss.
func (c Composite) Penalties() (l2, l1 float64) { return c.L2, c.L1 }

// Name implements Loss.
func (c Composite) Name() string {
	switch {
	case c.L1 > 0 && c.L2 > 0:
		return c.Inner.Name() + "+elastic-net"
	case c.L1 > 0:
		return c.Inner.Name() + "+l1"
	default:
		return c.Inner.Name() + "+l2"
	}
}

// bare returns loss without its penalties: the loss a row loop calls, so a
// Composite costs no second method hop per row.
func bare(loss Loss) Loss {
	if c, ok := loss.(Composite); ok {
		return c.Inner
	}
	return loss
}

// rejectL1 guards solvers without a prox step: silently dropping the ℓ1
// term would report the composite objective while optimizing a different
// one.
func rejectL1(loss Loss, solver string) error {
	if _, l1 := loss.Penalties(); l1 > 0 {
		return fmt.Errorf("opt: %s has no proximal step and cannot solve an ℓ1 objective (use sgd, asgd, cd or gcg)", solver)
	}
	return nil
}

// Objective evaluates the full mean loss F(w) = (1/n) Σ ℓ(x_i·w, y_i) plus
// the penalties over a dataset on the driver, in O(nnz + cols).
// Experiments use it post hoc on recorded snapshots so evaluation never
// perturbs run timing.
func Objective(d *dataset.Dataset, loss Loss, w la.Vec) float64 {
	n := d.NumRows()
	if n == 0 {
		return 0
	}
	var penalty float64
	l2, l1 := loss.Penalties()
	if l2 > 0 {
		penalty += 0.5 * l2 * la.Dot(w, w)
	}
	if l1 > 0 {
		penalty += l1 * la.Norm1(w)
	}
	lin := bare(loss)
	var sum float64
	for i := 0; i < n; i++ {
		idx, val := d.X.RowNZ(i)
		sum += lin.Value(la.SparseDot(idx, val, w), d.Y[i])
	}
	return sum/float64(n) + penalty
}

// ReferenceOptimum computes F(w*) for the least-squares problem by solving
// the normal equations with conjugate gradient — the role the long Mllib
// baseline run plays in §6.1.
func ReferenceOptimum(d *dataset.Dataset) (w la.Vec, fstar float64, err error) {
	w, res, err := la.NormalEquationsSolve(d.X, d.Y, 1e-8, 1e-10, 4*d.NumCols())
	if err != nil {
		return nil, 0, fmt.Errorf("opt: reference optimum: %w", err)
	}
	if !res.Converged {
		// fall back to the best iterate: fine for a reference value as long
		// as the residual is small relative to the problem
		if res.Residual > 1e-3 {
			return nil, 0, fmt.Errorf("opt: reference CG stalled (residual %g)", res.Residual)
		}
	}
	return w, Objective(d, LeastSquares{}, w), nil
}
