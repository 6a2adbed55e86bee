package opt

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/la"
)

// sagaState carries the driver-side SAGA accumulators shared by the
// synchronous and asynchronous variants, plus the lazy-drift machinery of
// the sparse-delta path: the dense −α·avgHist term of each update is
// deferred per coordinate (avgHist itself moves only at touched
// coordinates, so the skipped contributions telescope into
// (Σα − lastSettled_j)·avgHist[j]) and settled on snapshot, broadcast,
// finish, or a dense partial.
type sagaState struct {
	w       la.Vec
	avgHist la.Vec // running average of historical gradients
	n       float64
	drift   lazyDrift
}

func newSagaState(cols, rows int) *sagaState {
	return &sagaState{
		w:       la.NewVec(cols),
		avgHist: la.NewVec(cols),
		n:       float64(rows),
	}
}

// settle flushes the deferred avgHist drift so w is externally consistent.
func (s *sagaState) settle() { s.drift.settleAll(s.w, s.avgHist) }

// init applies warm starts from Params (checkpoint resume).
func (s *sagaState) init(p Params) error {
	if p.InitW != nil {
		if len(p.InitW) != len(s.w) {
			return fmt.Errorf("opt: InitW dim %d != %d", len(p.InitW), len(s.w))
		}
		s.w.CopyFrom(p.InitW)
	}
	if p.InitAvgHist != nil {
		if len(p.InitAvgHist) != len(s.avgHist) {
			return fmt.Errorf("opt: InitAvgHist dim %d != %d", len(p.InitAvgHist), len(s.avgHist))
		}
		s.avgHist.CopyFrom(p.InitAvgHist)
	}
	return nil
}

// Updater state half shared by every SAGA flavour. The checkpoint carries
// the settled model plus the history average. avgHist is the mean of the
// gradients stored in the worker-side history shards, so the two must stay
// consistent: a same-context resume (shards intact) restores avgHist for
// an exact continuation, while a resume after an engine reset (shards
// cleared — every sample reports zero historical gradient again) restarts
// avgHist at zero too. Restoring avgHist over empty shards would bake the
// old gradient mass in forever: nothing ever subtracts it, permanently
// biasing the estimator. Zero table + zero average is the standard SAGA
// cold start from the checkpointed model — unbiased, merely without the
// variance reduction history until samples are re-touched.
func (s *sagaState) Model() la.Vec { return s.w }
func (s *sagaState) Settle()       { s.settle() }

func (s *sagaState) Export(cp *Checkpoint) { cp.AvgHist = s.avgHist.Clone() }

func (s *sagaState) Import(cp *Checkpoint) error {
	if err := importModel(s.w, cp); err != nil {
		return err
	}
	if cp.AvgHist != nil && cp.HistoryAttached() {
		s.avgHist.CopyFrom(cp.AvgHist)
	} else {
		s.avgHist.Zero()
	}
	return nil
}

// apply performs one SAGA update from a collected partial:
//
//	w ← w − α·[ (ΣgCur − ΣgHist)/b + avgHist ]
//	avgHist ← avgHist + (ΣgCur − ΣgHist)/n
//
// which is Algorithm 4 lines 8–9 with the minibatch scaling written out.
func (s *sagaState) apply(alpha float64, part SagaPartial, batch int) error {
	if batch <= 0 {
		return fmt.Errorf("opt: SAGA partial with batch %d", batch)
	}
	if len(part.Sum) != len(s.w) || len(part.HistSum) != len(s.w) {
		return fmt.Errorf("opt: SAGA partial dims (%d,%d) != %d", len(part.Sum), len(part.HistSum), len(s.w))
	}
	// a dense update reads and eagerly applies avgHist everywhere, so any
	// deferred drift must land first
	s.settle()
	// One fused pass instead of four BLAS-1 sweeps: d = ΣgCur − ΣgHist,
	// w −= α·(d/b + avgHist), avgHist += d/n (Algorithm 4 lines 8–9).
	ab := alpha / float64(batch)
	invN := 1 / s.n
	w, avg := s.w, s.avgHist
	for j := range w {
		d := part.Sum[j] - part.HistSum[j]
		w[j] -= ab*d + alpha*avg[j]
		avg[j] += d * invN
	}
	return nil
}

// applyDelta is the O(nnz) flavour of apply for a sparse partial: touched
// coordinates are settled through this update (including its own −α·avgHist
// term, read before avgHist moves, matching the dense order of operations)
// and every untouched coordinate's drift stays deferred.
func (s *sagaState) applyDelta(alpha float64, part SagaDelta, batch int) error {
	if batch <= 0 {
		return fmt.Errorf("opt: SAGA partial with batch %d", batch)
	}
	if part.Sum == nil || part.HistSum == nil || part.Sum.N != len(s.w) || part.HistSum.N != len(s.w) {
		return fmt.Errorf("opt: SAGA sparse partial dims != %d", len(s.w))
	}
	s.drift.ensure(len(s.w))
	s.drift.advance(alpha)
	ab := alpha / float64(batch)
	invN := 1 / s.n
	w, avg := s.w, s.avgHist
	// merged walk over the two supports (each sorted, possibly different:
	// rows with no recorded history contribute no historical gradient)
	S, H := part.Sum, part.HistSum
	si, hi := 0, 0
	for si < len(S.Idx) || hi < len(H.Idx) {
		var j int32
		var d float64
		switch {
		case hi >= len(H.Idx) || (si < len(S.Idx) && S.Idx[si] < H.Idx[hi]):
			j, d = S.Idx[si], S.Val[si]
			si++
		case si >= len(S.Idx) || H.Idx[hi] < S.Idx[si]:
			j, d = H.Idx[hi], -H.Val[hi]
			hi++
		default:
			j, d = S.Idx[si], S.Val[si]-H.Val[hi]
			si++
			hi++
		}
		s.drift.settleCoord(w, avg, j)
		w[j] -= ab * d
		avg[j] += d * invN
	}
	return nil
}

// sagaRoundUpdater is the bulk-synchronous SAGA round state: current- and
// historical-gradient partials fold into two roundAccums (sparse partials
// merge without densifying), and the flush applies one combined update —
// dense math when any partial was dense, the O(nnz) lazy-drift path when
// the whole round was sparse.
type sagaRoundUpdater struct {
	*sagaState
	sum, hist *roundAccum
	batch     int
}

func (u *sagaRoundUpdater) Apply(payload any, attrs *core.Attrs, _ float64) error {
	switch part := payload.(type) {
	case SagaPartial:
		u.sum.AddDense(part.Sum)
		u.hist.AddDense(part.HistSum)
	case SagaDelta:
		u.sum.AddSparse(part.Sum)
		u.hist.AddSparse(part.HistSum)
	default:
		return fmt.Errorf("unexpected SAGA payload %T", payload)
	}
	u.batch += attrs.MiniBatch
	return nil
}

func (u *sagaRoundUpdater) FlushRound(alpha float64) (bool, error) {
	batch := u.batch
	u.batch = 0
	defer func() {
		u.sum.Reset()
		u.hist.Reset()
	}()
	if batch == 0 {
		return false, nil
	}
	if u.sum.Dense() != nil || u.hist.Dense() != nil {
		// any dense partial forces the dense combined apply (BSP rounds
		// were O(d) on the driver historically; the sparse win was worker
		// compute and wire bytes)
		combined := SagaPartial{Sum: u.sum.Densify(), HistSum: u.hist.Densify()}
		return true, u.apply(alpha, combined, batch)
	}
	if u.sum.Sparse() == nil {
		return false, nil
	}
	// all-sparse round: one merged O(nnz) update with lazy avgHist drift
	delta := SagaDelta{Sum: u.sum.Sparse(), HistSum: u.hist.Sparse()}
	if delta.HistSum == nil {
		// rows with no recorded history contributed no historical partials
		delta.HistSum = &la.DeltaVec{N: len(u.w)}
	}
	return true, u.applyDelta(alpha, delta, batch)
}

// SAGA is the synchronous variant of Algorithm 3, but implemented with the
// ASYNCbroadcaster instead of re-broadcasting the model-parameter table
// each round — the optimization §4.3 exists for. Rounds are BSP: every
// worker contributes one partial per update.
func SAGA(ac *core.Context, d *dataset.Dataset, p Params, fstar float64) (*Result, error) {
	if err := p.defaults(); err != nil {
		return nil, err
	}
	if err := rejectL1(p.Loss, "saga"); err != nil {
		return nil, err
	}
	st := newSagaState(d.NumCols(), d.NumRows())
	if err := st.init(p); err != nil {
		return nil, err
	}
	dispatch, err := kernelDispatch(ac, SagaOpName, p.Loss, p.SampleFrac, nil)
	if err != nil {
		return nil, err
	}
	u := &sagaRoundUpdater{
		sagaState: st,
		sum:       newRoundAccum(d.NumCols()),
		hist:      newRoundAccum(d.NumCols()),
	}
	return runLoop(ac, d, u, &loopSpec{
		Algo: "SAGA", Name: "saga", Key: "saga.w",
		P: &p, Loss: p.Loss, FStar: fstar, Target: int64(p.Updates),
		Barrier: core.BSP(), Round: true, RoundBudget: true,
		Dispatch: dispatch,
	})
}

// sagaStreamUpdater applies one collected SAGA partial per model update
// (the asynchronous variant).
type sagaStreamUpdater struct{ *sagaState }

func (u sagaStreamUpdater) Apply(payload any, attrs *core.Attrs, alpha float64) error {
	return applySagaPayload(u.sagaState, alpha, payload, attrs.MiniBatch)
}

// ASAGA is asynchronous SAGA (Algorithm 4): workers compute current and
// historical gradients against their locally cached model versions, the
// driver applies an update per collected partial, and no round barrier
// exists (barrier defaults to ASP).
func ASAGA(ac *core.Context, d *dataset.Dataset, p Params, fstar float64) (*Result, error) {
	if err := p.defaults(); err != nil {
		return nil, err
	}
	if err := rejectL1(p.Loss, "asaga"); err != nil {
		return nil, err
	}
	st := newSagaState(d.NumCols(), d.NumRows())
	if err := st.init(p); err != nil {
		return nil, err
	}
	dispatch, err := kernelDispatch(ac, SagaOpName, p.Loss, p.SampleFrac, nil)
	if err != nil {
		return nil, err
	}
	return runLoop(ac, d, sagaStreamUpdater{st}, &loopSpec{
		Algo: "ASAGA", Name: "asaga", Key: "saga.w",
		P: &p, Loss: p.Loss, FStar: fstar, Target: int64(p.Updates),
		Dispatch: dispatch,
	})
}

// applySagaPayload dispatches a collected partial to the dense or sparse
// apply and recycles its pooled storage.
func applySagaPayload(st *sagaState, alpha float64, payload any, batch int) error {
	switch part := payload.(type) {
	case SagaPartial:
		err := st.apply(alpha, part, batch)
		la.PutVec(part.Sum)
		la.PutVec(part.HistSum)
		return err
	case SagaDelta:
		err := st.applyDelta(alpha, part, batch)
		la.PutDelta(part.Sum)
		la.PutDelta(part.HistSum)
		return err
	default:
		return fmt.Errorf("unexpected SAGA payload %T", payload)
	}
}
