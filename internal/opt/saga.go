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
	avgHist la.Vec // running average of the loss's historical gradients
	n       float64
	l2      float64 // the ridge coefficient, applied by apply (ridge partials ship dense)
	drift   lazyDrift
}

func newSagaState(cols, rows int) *sagaState {
	return &sagaState{
		w:       la.NewVec(cols),
		avgHist: la.NewVec(cols),
		n:       float64(rows),
	}
}

// newSagaRun validates p for the SAGA run named name and builds its driver
// state, the objective's ridge term kept by the driver.
func newSagaRun(d *dataset.Dataset, p *Params, name string) (*sagaState, error) {
	if err := p.defaults(); err != nil {
		return nil, err
	}
	if err := rejectL1(p.Loss, name); err != nil {
		return nil, err
	}
	st := newSagaState(d.NumCols(), d.NumRows())
	st.l2, _ = p.Loss.Penalties()
	return st, nil
}

// settle flushes the deferred avgHist drift so w is externally consistent.
func (s *sagaState) settle() { s.drift.settleAll(s.w, s.avgHist) }

// Updater state half shared by every SAGA flavour. The checkpoint carries
// the settled model plus the history average. avgHist is the mean of the
// historical gradients the workers' history tables hold (SagaKernel's
// per-row coefficients, or the version-history arm's recorded versions), so
// the two must stay consistent: a same-context resume (tables intact)
// restores avgHist for an exact continuation, while a resume after an
// engine reset (tables cleared — every sample reports zero historical
// gradient again) restarts avgHist at zero too. Restoring avgHist over
// empty tables would bake the old gradient mass in forever: nothing ever
// subtracts it, permanently biasing the estimator. Zero table + zero
// average is the standard SAGA cold start from the checkpointed model —
// unbiased, merely without the variance reduction history until samples
// are re-touched.
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

// apply performs one SAGA update from a collected partial, the sum
// d = Σ_{i∈S} ∇f_i(w_current) − ∇f_i(w_hist(i)) of the loss's gradient
// differences that SagaKernel ships:
//
//	w ← w − α·[ d/b + avgHist + λ·w ]
//	avgHist ← avgHist + d/n
//
// which is Algorithm 4 lines 8–9 with the minibatch scaling written out and
// a ridge term taken exactly at the model updated (unbiased SAGA with an
// exact regularizer).
func (s *sagaState) apply(alpha float64, diff la.Vec, batch int) error {
	if batch <= 0 {
		return fmt.Errorf("opt: SAGA partial with batch %d", batch)
	}
	if len(diff) != len(s.w) {
		return fmt.Errorf("opt: SAGA partial dim %d != %d", len(diff), len(s.w))
	}
	// a dense update reads and eagerly applies avgHist everywhere, so any
	// deferred drift must land first
	s.settle()
	if s.l2 != 0 {
		la.Scale(1-alpha*s.l2, s.w)
	}
	// one fused pass instead of three BLAS-1 sweeps
	ab := alpha / float64(batch)
	invN := 1 / s.n
	w, avg := s.w, s.avgHist
	for j, d := range diff {
		w[j] -= ab*d + alpha*avg[j]
		avg[j] += d * invN
	}
	return nil
}

// applyDelta is the O(nnz) flavour of apply for a sparse partial: touched
// coordinates are settled through this update (including its own −α·avgHist
// term, read before avgHist moves, matching the dense order of operations)
// and every untouched coordinate's drift stays deferred.
func (s *sagaState) applyDelta(alpha float64, diff *la.DeltaVec, batch int) error {
	if batch <= 0 {
		return fmt.Errorf("opt: SAGA partial with batch %d", batch)
	}
	if diff.N != len(s.w) {
		return fmt.Errorf("opt: SAGA sparse partial dim %d != %d", diff.N, len(s.w))
	}
	s.drift.ensure(len(s.w))
	s.drift.advance(alpha)
	ab := alpha / float64(batch)
	invN := 1 / s.n
	w, avg := s.w, s.avgHist
	for k, j := range diff.Idx {
		d := diff.Val[k]
		s.drift.settleCoord(w, avg, j)
		w[j] -= ab * d
		avg[j] += d * invN
	}
	return nil
}

// sagaRoundUpdater is the bulk-synchronous SAGA round state: partials fold
// into one roundAccum (sparse partials merge without densifying), and the
// flush applies one combined update — dense math when any partial was
// dense, the O(nnz) lazy-drift path when the whole round was sparse.
type sagaRoundUpdater struct {
	*sagaState
	acc   *roundAccum
	batch int
}

func (u *sagaRoundUpdater) Apply(payload any, attrs *core.Attrs, _ float64) error {
	switch part := payload.(type) {
	case la.Vec:
		u.acc.AddDense(part)
	case *la.DeltaVec:
		u.acc.AddSparse(part)
	default:
		return fmt.Errorf("unexpected SAGA payload %T", payload)
	}
	u.batch += attrs.MiniBatch
	return nil
}

func (u *sagaRoundUpdater) FlushRound(alpha float64) (bool, error) {
	batch := u.batch
	u.batch = 0
	defer u.acc.Reset()
	switch {
	case batch == 0:
		return false, nil
	case u.acc.Dense() != nil:
		// any dense partial forces the dense combined apply (BSP rounds
		// were O(d) on the driver historically; the sparse win was worker
		// compute and wire bytes)
		return true, u.apply(alpha, u.acc.Densify(), batch)
	case u.acc.Sparse() != nil:
		// all-sparse round: one merged O(nnz) update with lazy avgHist drift
		return true, u.applyDelta(alpha, u.acc.Sparse(), batch)
	}
	return false, nil
}

// SAGA is the synchronous variant of Algorithm 3, but implemented with the
// ASYNCbroadcaster instead of re-broadcasting the model-parameter table
// each round — the optimization §4.3 exists for — and with SagaKernel's
// per-row history. Rounds are BSP: every worker contributes one partial
// per update.
func SAGA(ac *core.Context, d *dataset.Dataset, p Params, fstar float64) (*Result, error) {
	return runSAGA(ac, d, p, fstar, SagaOpName, true)
}

// sagaStreamUpdater applies one collected SAGA partial per model update
// (the asynchronous variant).
type sagaStreamUpdater struct{ *sagaState }

func (u sagaStreamUpdater) Apply(payload any, attrs *core.Attrs, alpha float64) error {
	return applySagaPayload(u.sagaState, alpha, payload, attrs.MiniBatch)
}

// ASAGA is asynchronous SAGA (Algorithm 4): workers compute current minus
// historical gradients at the model version their task names, the driver
// applies an update per collected partial, and no round barrier exists
// (barrier defaults to ASP).
func ASAGA(ac *core.Context, d *dataset.Dataset, p Params, fstar float64) (*Result, error) {
	return runSAGA(ac, d, p, fstar, SagaOpName, false)
}

// runSAGA runs the SAGA family on kernel op (SagaOpName, or the
// version-history arm of baseline.go): in BSP rounds when round is set, one
// update per collected partial otherwise.
func runSAGA(ac *core.Context, d *dataset.Dataset, p Params, fstar float64, op string, round bool) (*Result, error) {
	algo, name := "ASAGA", "asaga"
	if round {
		algo, name = "SAGA", "saga"
	}
	if op != SagaOpName {
		algo, name = algo+"-history", name+"-history"
	}
	st, err := newSagaRun(d, &p, name)
	if err != nil {
		return nil, err
	}
	dispatch, err := kernelDispatch(ac, op, p.Loss, p.SampleFrac, nil)
	if err != nil {
		return nil, err
	}
	spec := &loopSpec{
		Algo: algo, Name: name, Key: "saga.w",
		P: &p, Loss: p.Loss, FStar: fstar, Target: int64(p.Updates),
		Dispatch: dispatch,
	}
	if !round {
		return runLoop(ac, d, sagaStreamUpdater{st}, spec)
	}
	spec.Barrier, spec.Round, spec.RoundBudget = core.BSP(), true, true
	u := &sagaRoundUpdater{sagaState: st, acc: newRoundAccum(d.NumCols())}
	return runLoop(ac, d, u, spec)
}

// applySagaPayload dispatches a collected partial to the dense or sparse
// apply and recycles its pooled storage.
func applySagaPayload(st *sagaState, alpha float64, payload any, batch int) error {
	switch part := payload.(type) {
	case la.Vec:
		err := st.apply(alpha, part, batch)
		la.PutVec(part)
		return err
	case *la.DeltaVec:
		err := st.applyDelta(alpha, part, batch)
		la.PutDelta(part)
		return err
	default:
		return fmt.Errorf("unexpected SAGA payload %T", payload)
	}
}
