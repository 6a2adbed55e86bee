package opt

import "fmt"

// The separable proximal contract. A composite objective
//
//	F(w) = smooth(w) + ψ(w),   ψ separable: ψ(w) = Σ_j ψ_j(w_j)
//
// splits into a smooth part the gradient kernels handle (inner loss plus the
// L2 ridge term) and a nonsmooth part the drivers apply through the prox
// operator, one coordinate at a time — the linlearn `prox.call_single`
// idiom. Smooth objectives carry the identity prox; ℓ1/elastic-net carry the
// soft-threshold. Drivers that cannot apply a prox (SAGA, SVRG, the
// consensus solvers) reject objectives whose prox is not the identity.

// Prox is the proximal operator of the separable nonsmooth term ψ:
// Call1(v, t) = argmin_u ψ(u)·t + ½(u − v)² for one coordinate.
type Prox interface {
	// Call1 applies the scaled operator prox_{t·ψ}(v) to one coordinate.
	Call1(v, t float64) float64
	// IsIdentity reports ψ ≡ 0, letting hot loops skip the call entirely.
	IsIdentity() bool
	Name() string
}

// IdentityProx is the prox of a smooth objective (ψ ≡ 0).
type IdentityProx struct{}

// Call1 implements Prox.
func (IdentityProx) Call1(v, _ float64) float64 { return v }

// IsIdentity implements Prox.
func (IdentityProx) IsIdentity() bool { return true }

// Name implements Prox.
func (IdentityProx) Name() string { return "identity" }

// L1Prox is the soft-threshold operator of ψ(w) = λ1·‖w‖₁.
type L1Prox struct{ Lambda float64 }

// Call1 implements Prox: soft(v, t·λ1).
func (p L1Prox) Call1(v, t float64) float64 { return SoftThreshold(v, t*p.Lambda) }

// IsIdentity implements Prox.
func (p L1Prox) IsIdentity() bool { return p.Lambda <= 0 }

// Name implements Prox.
func (L1Prox) Name() string { return "l1" }

// ProxOf returns the objective's nonsmooth prox: the soft-threshold for a
// Composite with an ℓ1 term, the identity for every smooth loss (L2 is a
// smooth term and stays on the gradient side).
func ProxOf(loss Loss) Prox {
	if _, _, l1, ok := splitProx(loss); ok && l1 > 0 {
		return L1Prox{Lambda: l1}
	}
	return IdentityProx{}
}

// SoftThreshold is the scalar shrinkage operator prox_{t·|·|}(v):
// sign(v)·max(|v| − t, 0). Two algebraic identities make the lazy
// prox-at-settle path exact (see lazy.go): thresholds compose additively,
// soft(soft(v,a),b) = soft(v,a+b), and commute with positive scaling,
// c·soft(v,t) = soft(c·v, c·t).
func SoftThreshold(v, t float64) float64 {
	if t <= 0 {
		return v
	}
	if v > t {
		return v - t
	}
	if v < -t {
		return v + t
	}
	return 0
}

// l1Of returns the objective's ℓ1 coefficient (0 for smooth losses).
func l1Of(loss Loss) float64 {
	if c, ok := loss.(Composite); ok {
		return c.L1
	}
	return 0
}

// rejectL1 guards solvers without a prox step: silently dropping the ℓ1
// term would report the composite objective while optimizing a different
// one.
func rejectL1(loss Loss, solver string) error {
	if l1Of(loss) > 0 {
		return fmt.Errorf("opt: %s has no proximal step and cannot solve an ℓ1 objective (use sgd, asgd, cd or gcg)", solver)
	}
	return nil
}

// curvOf bounds the second derivative ℓ”(dot, y) of a linear loss — the
// data-independent factor of the diagonal curvature h_j = curv·Σᵢ x_ij² the
// coordinate methods precondition with. Exact for least squares (ℓ” = 2),
// the usual ¼ bound for logistic. Returns 0 for losses without a known
// bound.
func curvOf(lin LinearLoss) float64 {
	switch lin.(type) {
	case LeastSquares:
		return 2
	case Logistic:
		return 0.25
	default:
		return 0
	}
}
