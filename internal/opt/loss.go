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
// Semantics of lazy L2 under staleness: on the sparse task path the L2
// shrinkage (1−αλ)·w is deferred per coordinate and applied at the
// driver's CURRENT model when a coordinate is next touched or the model is
// settled — not at the (possibly stale) worker model the task's inner
// gradient was computed against. At zero staleness this is identical to
// the eager dense update (pinned to 1e-9 in sparse_test.go); under
// asynchrony both orderings are valid async-SGD variants — the deferred
// one simply commutes the shrinkage past intervening sparse updates.
// Dense payloads always carry their loss's own λ·w terms eagerly.
package opt

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/la"
)

// Loss is a per-sample convex loss ℓ(x·w, y) with gradient accumulation.
type Loss interface {
	// Value returns ℓ for one sample.
	Value(x la.SparseVec, y float64, w la.Vec) float64
	// AddGrad accumulates ∇ℓ for one sample into g (g += ∇ℓ(x·w, y)).
	AddGrad(x la.SparseVec, y float64, w la.Vec, g la.Vec)
	Name() string
}

// LinearLoss marks losses of the generalized linear form ℓ(x·w, y): the
// per-sample gradient factors as GradCoeff(x·w, y)·x, touching exactly the
// row's nonzero coordinates. This is what lets the sparse task path
// accumulate gradients in O(nnz) instead of O(d) — see kernel.go.
type LinearLoss interface {
	Loss
	// GradCoeff returns dℓ/d(x·w) evaluated at (dot, y).
	GradCoeff(dot, y float64) float64
}

// splitLoss decomposes a loss into its linear core and an L2 coefficient:
// LeastSquares and Logistic are their own cores with λ = 0, an ℓ1-free
// Composite peels off its penalty when the inner loss is linear.
// ok reports whether the sparse task path can represent the loss at all;
// when it can and λ > 0, workers ship inner-only gradients and the driver
// applies the shrinkage lazily (see lazy.go). Objectives with an ℓ1 term
// are never ok here — the solvers on this path have no prox step (the
// SGD-family appliers use splitProx instead).
func splitLoss(loss Loss) (lin LinearLoss, lambda float64, ok bool) {
	lin, l2, l1, ok := splitProx(loss)
	return lin, l2, ok && l1 == 0
}

// LeastSquares is the paper's experimental objective (Eq. 3/4):
// ℓ = (x·w − y)², ∇ℓ = 2(x·w − y)x.
type LeastSquares struct{}

// Value implements Loss.
func (LeastSquares) Value(x la.SparseVec, y float64, w la.Vec) float64 {
	r := x.DotDense(w) - y
	return r * r
}

// AddGrad implements Loss.
func (LeastSquares) AddGrad(x la.SparseVec, y float64, w la.Vec, g la.Vec) {
	r := x.DotDense(w) - y
	x.AxpyDense(2*r, g)
}

// GradCoeff implements LinearLoss: ∇ℓ = 2(x·w − y)·x.
func (LeastSquares) GradCoeff(dot, y float64) float64 { return 2 * (dot - y) }

// Name implements Loss.
func (LeastSquares) Name() string { return "least-squares" }

// Logistic is the binary logistic loss ℓ = log(1 + exp(−y·x·w)) for labels
// y ∈ {−1, +1}.
type Logistic struct{}

// Value implements Loss.
func (Logistic) Value(x la.SparseVec, y float64, w la.Vec) float64 {
	m := y * x.DotDense(w)
	// numerically stable log(1+exp(−m))
	if m > 0 {
		return math.Log1p(math.Exp(-m))
	}
	return -m + math.Log1p(math.Exp(m))
}

// AddGrad implements Loss.
func (Logistic) AddGrad(x la.SparseVec, y float64, w la.Vec, g la.Vec) {
	m := y * x.DotDense(w)
	// σ(−m) = 1/(1+exp(m))
	s := 1.0 / (1.0 + math.Exp(m))
	x.AxpyDense(-y*s, g)
}

// GradCoeff implements LinearLoss: ∇ℓ = −y·σ(−y·x·w)·x. The arithmetic
// mirrors AddGrad operation for operation so the sparse and dense task
// paths produce bitwise-identical gradients.
func (Logistic) GradCoeff(dot, y float64) float64 {
	s := 1.0 / (1.0 + math.Exp(y*dot))
	return -y * s
}

// Name implements Loss.
func (Logistic) Name() string { return "logistic" }

// Composite is the elastic-net objective: a smooth inner loss plus
// (L2/2)·‖w‖² + L1·‖w‖₁. The smooth part (inner + L2 ridge) flows through
// AddGrad and the gradient kernels; the nonsmooth ℓ1 term is applied only
// through the prox seam (prox.go) by the prox-capable drivers — AddGrad
// deliberately excludes it, so solvers without a prox step must reject
// composites with L1 > 0 (rejectL1) instead of silently solving the wrong
// problem. The penalties are amortized per sample assuming the objective is
// a mean over n samples; callers embed the coefficients already scaled.
type Composite struct {
	Inner Loss
	L2    float64
	L1    float64
}

// Value implements Loss: the full composite value, both penalties included.
func (c Composite) Value(x la.SparseVec, y float64, w la.Vec) float64 {
	v := c.Inner.Value(x, y, w)
	if c.L2 > 0 {
		v += 0.5 * c.L2 * la.Dot(w, w)
	}
	if c.L1 > 0 {
		v += c.L1 * la.Norm1(w)
	}
	return v
}

// AddGrad implements Loss with the SMOOTH part only (inner + L2·w); the ℓ1
// subgradient is never accumulated — see the type doc.
func (c Composite) AddGrad(x la.SparseVec, y float64, w la.Vec, g la.Vec) {
	c.Inner.AddGrad(x, y, w, g)
	if c.L2 > 0 {
		la.Axpy(c.L2, w, g)
	}
}

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

// splitProx decomposes a composite objective for the prox-capable task
// paths: the linear smooth core, the L2 coefficient (applied lazily as a
// running shrink product) and the L1 coefficient (applied as prox-at-settle
// soft-thresholds). ok reports whether the sparse task path can represent
// the smooth core; both penalties are driver-side, so they never disqualify
// it.
func splitProx(loss Loss) (lin LinearLoss, l2, l1 float64, ok bool) {
	if c, isComposite := loss.(Composite); isComposite {
		lin, ok = c.Inner.(LinearLoss)
		return lin, c.L2, c.L1, ok && c.L2 >= 0 && c.L1 >= 0
	}
	lin, ok = loss.(LinearLoss)
	return lin, 0, 0, ok
}

// Objective evaluates the full mean loss F(w) = (1/n) Σ ℓ_i(w) over a
// dataset on the driver. Experiments use it post hoc on recorded snapshots
// so evaluation never perturbs run timing.
//
// The penalties of a Composite do not depend on the sample, so they are
// peeled off and added once per evaluation — O(nnz + cols), where summing
// Loss.Value over the rows would pay O(cols) per row. The result agrees with
// that sum up to rounding.
func Objective(d *dataset.Dataset, loss Loss, w la.Vec) float64 {
	n := d.NumRows()
	if n == 0 {
		return 0
	}
	var penalty float64
	for {
		c, isComposite := loss.(Composite)
		if !isComposite {
			break
		}
		if c.L2 > 0 {
			penalty += 0.5 * c.L2 * la.Dot(w, w)
		}
		if c.L1 > 0 {
			penalty += c.L1 * la.Norm1(w)
		}
		loss = c.Inner
	}
	var sum float64
	for i := 0; i < n; i++ {
		sum += loss.Value(d.X.Row(i), d.Y[i], w)
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
