package opt

import (
	"math"
	"slices"

	"repro/internal/dataset"
	"repro/internal/la"
	"repro/internal/la/maxip"
	"repro/internal/telemetry"
)

// Greedy (Gauss-Southwell) block selection for the coordinate family: a
// driver-side maxip.Index over the full dataset's columns ranks every
// coordinate by its penalty-aware gradient score, and each round's block is
// the top-|score| set — the steepest block instead of the next cursor
// position, at O(k·log d) per pick instead of the O(nnz + d) exact sweep.
//
// The correctness contract has two halves. The index's half is exactness
// given its query vector (see internal/la/maxip). The driver's half is
// verifying that query: the selector's scores derive from a residual mirror
// it advances incrementally from the same CDDelta stream the workers
// consume, so every round it compares its predicted block gradient against
// the exact per-block gradients the workers return. A relative mismatch is
// a miss; a miss triggers one full rebuild (residuals recomputed from the
// model); a second consecutive miss after rebuilding means the incremental
// chain cannot be trusted and the solver permanently falls back to cyclic
// order. Hits, misses, rebuilds, and fallbacks are all counted on the
// process registry (async_opt_select_*).
var (
	optSelHits = telemetry.Default().Counter("async_opt_select_hits_total",
		"Greedy-selection rounds where the index-predicted block gradient matched the workers' exact one.")
	optSelMisses = telemetry.Default().Counter("async_opt_select_misses_total",
		"Greedy-selection rounds where the predicted block gradient missed the exact one.")
	optSelRebuilds = telemetry.Default().Counter("async_opt_select_rebuilds_total",
		"Full selector rebuilds (residual mirror + index) triggered by a verification miss.")
	optSelFallbacks = telemetry.Default().Counter("async_opt_select_fallbacks_total",
		"Permanent falls back to cyclic order after repeated verification misses.")
)

// selVerifyTol is the relative tolerance separating float-reassociation
// noise (worker partials sum in arrival order; the mirror sums in storage
// order) from a genuinely stale score.
const selVerifyTol = 1e-8

// gsSelector owns the greedy-selection driver state.
type gsSelector struct {
	d        *dataset.Dataset
	cv       *la.ColView
	ix       *maxip.Index
	lin      LinearLoss
	w        la.Vec // the updater's model (aliased, driver-owned)
	nl2, nl1 float64
	r        la.Vec // residual mirror r_i = x_i·w

	pred     []float64 // verify scratch: the index's scores for a block
	misses   int       // consecutive verification misses
	rebuilt  bool      // a rebuild already answered the current miss streak
	fallback bool      // permanent: greedy disabled, caller reverts to cyclic
}

// newGSSelector builds the selector at the current model w (usually zeros).
// exactBelow forwards to maxip.Options.ExactBelow: 0 is the package default
// threshold, negative forces the tournament tree (tests pin tree vs scan
// equivalence through this knob).
func newGSSelector(d *dataset.Dataset, lin LinearLoss, l2, l1 float64, w la.Vec, exactBelow int) *gsSelector {
	s := &gsSelector{
		d: d, cv: la.NewColView(d.X), lin: lin, w: w,
		nl2: float64(d.NumRows()) * l2, nl1: float64(d.NumRows()) * l1,
		r: la.NewVec(d.NumRows()),
	}
	s.ix = maxip.New(d.X, s.cv, nil, maxip.Options{
		ExactBelow: exactBelow,
		Scorer:     s.score,
	})
	s.reset()
	return s
}

// score is the penalty-aware Gauss-Southwell rule over the maintained sum
// gradient g_j = s: held coordinates rank by the magnitude of the full
// composite subgradient, zero coordinates by how far the smooth gradient
// exceeds the ℓ1 threshold that pins them at zero (0 = not worth moving).
func (s *gsSelector) score(col int32, g float64) float64 {
	if wj := s.w[col]; wj != 0 {
		v := g + s.nl2*wj
		if wj > 0 {
			v += s.nl1
		} else {
			v -= s.nl1
		}
		return math.Abs(v)
	}
	v := math.Abs(g) - s.nl1
	if v < 0 {
		return 0
	}
	return v
}

// reset recomputes the residual mirror and the index from the model — the
// cold-start, resume, and miss-recovery path.
func (s *gsSelector) reset() {
	s.d.X.MatVec(s.w, s.r)
	u := la.GetVec(len(s.r))
	for i, ri := range s.r {
		u[i] = s.lin.GradCoeff(ri, s.d.Y[i])
	}
	s.ix.Rebuild(u)
	la.PutVec(u)
}

// advance folds one applied round delta into the mirror: residuals move on
// the changed columns' rows, the query re-derives on exactly those rows,
// and the changed coordinates re-rank (their w_j feeds the scorer).
func (s *gsSelector) advance(delta *la.DeltaVec) {
	s.cv.ApplyDelta(delta, s.r)
	for _, j := range delta.Idx {
		s.ix.MarkCol(j)
		rows, _ := s.cv.Col(j)
		for _, i := range rows {
			s.ix.SetRow(i, s.lin.GradCoeff(s.r[i], s.d.Y[int(i)]))
		}
	}
}

// pick returns the k best-scored coordinates, ascending (the block-order
// contract of the delta broadcast), in a buffer the caller owns — the
// round's kernels hold it after the next pick. Fewer than k come back only
// when the data stores fewer distinct columns.
func (s *gsSelector) pick(k int) []int32 {
	block := s.ix.TopK(k, make([]int32, 0, k))
	slices.Sort(block)
	return block
}

// verify compares the index's predicted block gradients against the exact
// per-block gradients the workers returned for the same round. One miss
// rebuilds; a second consecutive miss (the rebuild didn't cure it) trips
// the permanent cyclic fallback. Returns false once fallen back.
func (s *gsSelector) verify(block []int32, g la.Vec) bool {
	if s.fallback {
		return false
	}
	ok := true
	s.pred = s.ix.Scores(block, s.pred[:0])
	for k, pred := range s.pred {
		if diff := math.Abs(pred - g[k]); diff > selVerifyTol*math.Max(1, math.Abs(g[k])) {
			ok = false
			break
		}
	}
	if ok {
		optSelHits.Inc()
		s.misses = 0
		s.rebuilt = false
		return true
	}
	optSelMisses.Inc()
	s.misses++
	if s.rebuilt {
		// the from-scratch rebuild did not restore agreement: stop being
		// greedy rather than keep selecting on untrusted scores
		s.fallback = true
		optSelFallbacks.Inc()
		return false
	}
	s.reset()
	s.rebuilt = true
	optSelRebuilds.Inc()
	return true
}
