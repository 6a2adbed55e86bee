package opt

import (
	"fmt"
	"math"

	"repro/internal/la"
)

// Driver-side lazy model updates for the sparse-delta data path.
//
// A sparse task payload touches O(nnz) coordinates, but three update terms
// are dense by nature: the L2 shrinkage (1 − αλ2)·w of a ridge term, the
// per-update soft-threshold prox of an ℓ1 term, and additive dense drifts
// like SAGA's −α·avgHist or SVRG's −α·μ. Applying any eagerly would put the
// driver back at O(d) per update. Instead the appliers here defer the dense
// term per coordinate — a timestamp records how far each coordinate has
// been settled — and settle it in O(1) when a sparse update touches the
// coordinate, or in one O(d) sweep when the full model must be externally
// consistent (snapshot, broadcast, finish, or a dense payload arriving
// mid-run). The deferred algebra telescopes, so the settled model is
// mathematically identical to the eager dense path; the regression tests in
// sparse_test.go pin this (bitwise for unregularized losses, to rounding
// for the deferred products and sums).
//
// Prox-at-settle: the ℓ1 telescoping rests on two exact scalar identities
// (see SoftThreshold) — thresholds compose additively and commute with
// positive scaling. With prod_k the running shrink product after update k
// and the normalized threshold accumulator
//
//	l1cum_k = Σ_{i≤k} α_i·λ1 / prod_i,
//
// a coordinate last settled at update s catches up to update k in O(1):
//
//	w_j ← (prod_k/prod_s) · soft(w_j, (l1cum_k − l1cum_s)·prod_s)
//
// — the skipped updates' shrinkages and soft-thresholds folded into one
// scale and one threshold. A touched coordinate settles through k−1 first,
// then applies update k's own shrink → gradient → threshold in the eager
// order, so the settled model equals the eager elastic-net iteration
// exactly (up to float rounding of the reassociated products).

// shrinkRenorm bounds the running shrink-factor product: when it decays
// below this, a settle sweep renormalises it to 1 so the per-coordinate
// ratios never lose precision or underflow.
const shrinkRenorm = 1e-120

// l1cumRenorm bounds the normalized threshold accumulator: prod ≈ 1 runs
// (tiny λ2) grow it linearly, so force a settle long before the subtraction
// l1cum − l1last[j] loses precision.
const l1cumRenorm = 1e18

// proxApplier applies collected gradient payloads for the SGD family: ASGD
// per payload, and SyncSGD per round through denseStep. Payloads carry the
// loss gradient alone; the applier adds the penalties at the model it
// updates. Dense la.Vec payloads take the eager path (denseStep); sparse
// *la.DeltaVec payloads take the O(nnz) path with lazy L2 shrinkage and
// prox-at-settle ℓ1 soft-thresholding.
type proxApplier struct {
	lambda float64 // the objective's L2 coefficient (0 = none)
	l1     float64 // ℓ1 coefficient, applied as prox-at-settle (0 = none)

	// lazy state: the true model is (prod/lastProd[j])·soft(w[j], pending_j)
	// with pending_j = (l1cum − l1last[j])·lastProd[j]; settle() restores
	// w[j] itself and resets prod/lastProd to 1 and l1cum/l1last to 0.
	prod     float64
	lastProd la.Vec
	l1cum    float64
	l1last   la.Vec // allocated only when l1 > 0
	dirty    bool

	// what changed since the last report: the coordinates sparse steps
	// touched, or every one once a dense step, a settle or an import moved
	// them all
	changeSet
}

// newProxApplier builds the applier for a run of p.
func newProxApplier(p *Params) *proxApplier {
	a := &proxApplier{prod: 1, changeSet: changeSet{all: true}}
	a.lambda, a.l1 = p.Loss.Penalties()
	return a
}

// apply performs one model update from a collected payload and recycles the
// payload's pooled storage. alpha is the step size, batch the mini-batch
// size from the result attributes.
func (a *proxApplier) apply(w la.Vec, payload any, alpha float64, batch int) error {
	switch g := payload.(type) {
	case la.Vec:
		a.settle(w)
		a.denseStep(w, g, alpha, batch)
		la.PutVec(g)
		return nil
	case *la.DeltaVec:
		a.applySparse(w, g, alpha, batch)
		la.PutDelta(g)
		return nil
	default:
		return fmt.Errorf("opt: unexpected gradient payload %T", payload)
	}
}

// denseStep takes one eager step from g, the loss gradient summed over batch
// rows: the ridge term batch·λ2·w joins g at the model being updated, then
// the step and the ℓ1 prox sweep. w must be settled; g is overwritten.
func (a *proxApplier) denseStep(w, g la.Vec, alpha float64, batch int) {
	a.all = true
	if a.lambda > 0 {
		la.Axpy(float64(batch)*a.lambda, w, g)
	}
	la.Axpy(-alpha/float64(batch), g, w)
	a.proxSweep(w, alpha)
}

func (a *proxApplier) applySparse(w la.Vec, g *la.DeltaVec, alpha float64, batch int) {
	ab := alpha / float64(batch)
	// every path below changes w at g's coordinates alone; the deferred
	// terms reach the others at the next settle, which reports them all
	a.touch(g.Idx, len(w))
	if a.lambda <= 0 && a.l1 <= 0 {
		g.AxpyDense(-ab, w)
		return
	}
	a.ensureLazy(len(w))
	np := a.prod * (1 - alpha*a.lambda)
	if a.l1 <= 0 {
		// lazy L2 only: w ← (1−αλ2)·w − (α/b)·g, shrinking untouched
		// coordinates only through the deferred product
		for k, j := range g.Idx {
			w[j] = w[j]*(np/a.lastProd[j]) - ab*g.Val[k]
			a.lastProd[j] = np
		}
	} else {
		// prox-at-settle: catch the touched coordinate up through the
		// previous update (scale + one folded threshold), then apply this
		// update's shrink → gradient → soft-threshold in the eager order
		nl1 := a.l1cum + alpha*a.l1/np
		thr := alpha * a.l1
		for k, j := range g.Idx {
			// the pending threshold is expressed at the coordinate's own
			// settle scale — threshold first, then rescale, like settle()
			x := w[j]
			if pend := (a.l1cum - a.l1last[j]) * a.lastProd[j]; pend > 0 {
				x = SoftThreshold(x, pend)
			}
			w[j] = SoftThreshold(x*(np/a.lastProd[j])-ab*g.Val[k], thr)
			a.lastProd[j] = np
			a.l1last[j] = nl1
		}
		a.l1cum = nl1
	}
	a.prod = np
	a.dirty = true
	if math.Abs(np) < shrinkRenorm || a.l1cum > l1cumRenorm {
		a.settle(w)
	}
}

// ensureLazy sizes the per-coordinate settle timestamps on first sparse use.
func (a *proxApplier) ensureLazy(cols int) {
	if a.lastProd == nil {
		a.lastProd = la.NewVec(cols)
		for j := range a.lastProd {
			a.lastProd[j] = 1
		}
	}
	if a.l1 > 0 && a.l1last == nil {
		a.l1last = la.NewVec(cols)
	}
}

// proxSweep applies one eager per-update soft-threshold over the full model
// — the dense-path counterpart of the deferred thresholds (the model must
// already be settled).
func (a *proxApplier) proxSweep(w la.Vec, alpha float64) {
	if a.l1 <= 0 {
		return
	}
	a.all = true
	thr := alpha * a.l1
	for j := range w {
		w[j] = SoftThreshold(w[j], thr)
	}
}

// settle flushes deferred shrinkage and pending soft-thresholds so w is
// externally consistent. Call before any read of the full model: snapshot,
// broadcast, finish, or a dense update.
func (a *proxApplier) settle(w la.Vec) {
	if !a.dirty {
		return
	}
	a.all = true
	if a.l1last == nil {
		for j := range w {
			if a.lastProd[j] != a.prod {
				w[j] *= a.prod / a.lastProd[j]
			}
			a.lastProd[j] = 1
		}
	} else {
		for j := range w {
			// threshold first at the coordinate's own settle scale, then
			// rescale — the telescoped form of the skipped updates
			if pend := (a.l1cum - a.l1last[j]) * a.lastProd[j]; pend > 0 {
				w[j] = SoftThreshold(w[j], pend)
			}
			if a.lastProd[j] != a.prod {
				w[j] *= a.prod / a.lastProd[j]
			}
			a.lastProd[j] = 1
			a.l1last[j] = 0
		}
	}
	a.prod = 1
	a.l1cum = 0
	a.dirty = false
}

// AxpyPayload applies w += alpha·g for a collected gradient payload of
// either task path — dense la.Vec or sparse *la.DeltaVec — and recycles
// the payload's pooled storage. Consumers outside the solver drivers
// (ablation harnesses, examples) use it so they stay correct whichever
// path the kernel chose.
func AxpyPayload(alpha float64, payload any, w la.Vec) error {
	switch g := payload.(type) {
	case la.Vec:
		la.Axpy(alpha, g, w)
		la.PutVec(g)
		return nil
	case *la.DeltaVec:
		g.AxpyDense(alpha, w)
		la.PutDelta(g)
		return nil
	default:
		return fmt.Errorf("opt: unexpected gradient payload %T", payload)
	}
}

// lazyDrift defers the per-update dense term w ← w − α·base where base[j]
// changes only at moments coordinate j is being settled anyway (SAGA's
// avgHist moves only at touched coordinates; SVRG's μ is constant within an
// epoch). cum accumulates the applied step sizes; last[j] records cum at
// coordinate j's latest settle, so the missing contribution is
// (cum − last[j])·base[j] — the telescoped sum of the skipped updates.
type lazyDrift struct {
	cum   float64
	last  la.Vec
	dirty bool
}

// ensure sizes the timestamp table on first sparse use; existing deferred
// state is preserved across calls.
func (l *lazyDrift) ensure(cols int) {
	if l.last == nil {
		l.last = la.NewVec(cols)
		for j := range l.last {
			l.last[j] = l.cum
		}
	}
}

// advance registers one applied update of step alpha whose dense term is
// being deferred.
func (l *lazyDrift) advance(alpha float64) {
	l.cum += alpha
	l.dirty = true
}

// settleCoord catches coordinate j up through every update registered so
// far, reading base[j] before the caller mutates it.
func (l *lazyDrift) settleCoord(w, base la.Vec, j int32) {
	if d := l.cum - l.last[j]; d != 0 {
		w[j] -= d * base[j]
	}
	l.last[j] = l.cum
}

// settleAll catches every coordinate up (snapshot/broadcast/finish, or
// before base changes wholesale, e.g. a new SVRG epoch anchor).
func (l *lazyDrift) settleAll(w, base la.Vec) {
	if !l.dirty {
		return
	}
	for j := range w {
		if d := l.cum - l.last[j]; d != 0 {
			w[j] -= d * base[j]
			l.last[j] = l.cum
		}
	}
	l.dirty = false
}
