package opt

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/la"
	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// Params configures an optimization run.
type Params struct {
	Loss       Loss     // defaults to LeastSquares
	Step       Schedule // required
	SampleFrac float64  // mini-batch sampling rate b (per the paper, §6.1)
	Updates    int      // number of model updates to perform

	// Barrier and Filter drive the ASYNCscheduler for asynchronous
	// variants. nil Barrier means ASP (fully asynchronous).
	Barrier core.BarrierFunc
	Filter  core.WorkerFilter

	// StalenessLR applies the Listing 1 staleness-dependent learning-rate
	// modulation: each result's step is divided by its staleness.
	StalenessLR bool

	// Momentum is the heavy-ball coefficient μ ∈ [0,1); 0 disables it.
	Momentum float64

	// InitW warm-starts the model (e.g. from a Checkpoint); nil = zeros.
	InitW la.Vec

	// InitAvgHist warm-starts the SAGA history average (checkpoint resume).
	InitAvgHist la.Vec

	// SnapshotEvery controls trace resolution (model snapshots per updates).
	SnapshotEvery int

	// OnProgress, when non-nil, observes every recorder snapshot as the run
	// progresses — the hook a supervising layer (e.g. the job scheduler)
	// uses to stream live convergence state. Never serialized.
	OnProgress ProgressFunc

	// CheckpointEvery, when positive, has the driver runtime capture a
	// Checkpoint every that many model updates and deliver it to
	// OnCheckpoint. The model is settled before every capture.
	CheckpointEvery int
	// OnCheckpoint observes periodic checkpoints. Never serialized.
	OnCheckpoint func(*Checkpoint)

	// Preempt, when non-nil, is polled at every update boundary; once
	// triggered the run settles, captures a checkpoint, drains, and returns
	// a *PreemptedError carrying it — the hook a preemptive scheduler uses
	// to take the engine away mid-run.
	Preempt *PreemptSignal

	// Resume warm-starts the full driver state (model, update clock,
	// solver-specific accumulators) from a checkpoint; the run continues
	// until the global budget Updates is reached. Supersedes InitW.
	Resume *Checkpoint

	// Trace, when non-nil, receives run-scoped lifecycle events (run_start,
	// epoch_begin, checkpoint, preempted, run_done) from the driver runtime,
	// correlated by the supervising layer's run ID. Never serialized.
	Trace *telemetry.Trace
}

// initModel builds the starting model for a run.
func (p *Params) initModel(cols int) (la.Vec, error) {
	w := la.NewVec(cols)
	if p.InitW != nil {
		if len(p.InitW) != cols {
			return nil, fmt.Errorf("opt: InitW dim %d != %d", len(p.InitW), cols)
		}
		w.CopyFrom(p.InitW)
	}
	return w, nil
}

// stepper applies (optionally momentum-accelerated) gradient steps.
type stepper struct {
	mu  float64
	vel la.Vec
}

func newStepper(mu float64, cols int) *stepper {
	s := &stepper{mu: mu}
	if mu > 0 {
		s.vel = la.NewVec(cols)
	}
	return s
}

// apply performs w += μ·v − alpha·g (heavy ball), or a plain step if μ = 0.
func (s *stepper) apply(w, g la.Vec, alpha float64) {
	if s.mu <= 0 {
		la.Axpy(-alpha, g, w)
		return
	}
	la.ScaleAddInto(s.vel, s.mu, s.vel, -alpha, g) // fused vel = μ·vel − α·g
	la.Axpy(1, s.vel, w)
}

// export/import of the velocity — the stepper's only driver state.
func (s *stepper) export(cp *Checkpoint) { cp.SetVec("vel", s.vel) }

func (s *stepper) importFrom(cp *Checkpoint) {
	if v := cp.Vec("vel"); v != nil && s.vel != nil {
		s.vel.CopyFrom(v)
	}
}

// runDefaults validates and defaults the part of Params every solver's run
// reads: the objective, the budget, the barrier, the trace resolution
// (snapshotEvery is the family's default) and the checkpoint cadence.
func (p *Params) runDefaults(snapshotEvery int) error {
	if p.Loss == nil {
		p.Loss = LeastSquares{}
	}
	if p.Updates <= 0 {
		return errors.New("opt: Params.Updates must be positive")
	}
	if p.Barrier == nil {
		p.Barrier = core.ASP()
	}
	if p.SnapshotEvery <= 0 {
		p.SnapshotEvery = snapshotEvery
	}
	if p.CheckpointEvery < 0 {
		return fmt.Errorf("opt: CheckpointEvery %d must be non-negative", p.CheckpointEvery)
	}
	return nil
}

// needStep rejects a run without a step schedule.
func (p *Params) needStep() error {
	if p.Step == nil {
		return errors.New("opt: Params.Step is required")
	}
	return nil
}

// defaults is runDefaults plus the sampling part only the stochastic
// gradient solvers read: the step schedule, the mini-batch rate and the
// momentum coefficient.
func (p *Params) defaults() error {
	if err := p.needStep(); err != nil {
		return err
	}
	if p.SampleFrac <= 0 || p.SampleFrac > 1 {
		return fmt.Errorf("opt: sample fraction %v outside (0,1]", p.SampleFrac)
	}
	if p.Momentum < 0 || p.Momentum >= 1 {
		return fmt.Errorf("opt: momentum %v outside [0,1)", p.Momentum)
	}
	return p.runDefaults(10)
}

// Result bundles a run's trace and final model.
type Result struct {
	Trace *metrics.Trace
	W     la.Vec
}

// syncSGDUpdater is the bulk-synchronous SGD round state: partials fold
// into a roundAccum (sparse partials merge without densifying), and the
// flush applies one averaged, optionally momentum-accelerated step.
type syncSGDUpdater struct {
	w      la.Vec
	st     *stepper
	lambda float64
	l1     float64 // ℓ1 coefficient: eager full-sweep soft-threshold per round
	acc    *roundAccum
	batch  int
	sparse int // samples behind sparse partials (their λ·w is driver-side)
}

func (u *syncSGDUpdater) Model() la.Vec { return u.w }
func (u *syncSGDUpdater) Settle()       {}

func (u *syncSGDUpdater) Apply(payload any, attrs *core.Attrs, _ float64) error {
	switch g := payload.(type) {
	case la.Vec:
		// dense partials already carry the loss's own λ·w_task terms
		u.acc.AddDense(g)
	case *la.DeltaVec:
		// sparse partials carry the inner gradient only; their λ·w terms
		// are restored once per round below (under BSP the workers' model
		// is exactly w, so this is the dense math)
		u.acc.AddSparse(g)
		u.sparse += attrs.MiniBatch
	default:
		return fmt.Errorf("unexpected gradient payload %T", payload)
	}
	u.batch += attrs.MiniBatch
	return nil
}

func (u *syncSGDUpdater) FlushRound(alpha float64) (bool, error) {
	batch, sparse := u.batch, u.sparse
	u.batch, u.sparse = 0, 0
	if batch == 0 {
		u.acc.Reset()
		return false, nil // every worker sampled zero rows; retry round
	}
	ab := alpha / float64(batch)
	needDense := u.st.mu > 0 || (u.lambda > 0 && sparse > 0) || (u.acc.Dense() != nil && u.acc.Sparse() != nil)
	if needDense {
		g := u.acc.Densify()
		if u.lambda > 0 && sparse > 0 {
			la.Axpy(float64(sparse)*u.lambda, u.w, g)
		}
		u.st.apply(u.w, g, ab)
	} else if g := u.acc.Dense(); g != nil {
		u.st.apply(u.w, g, ab)
	} else if s := u.acc.Sparse(); s != nil {
		// pure sparse round: the averaged step touches only the merged
		// support — O(round nnz) on the driver
		s.AxpyDense(-ab, u.w)
	}
	if u.l1 > 0 {
		// under BSP a round is one update, so the prox applies eagerly to
		// every coordinate — the O(d) sweep rides the round barrier
		thr := alpha * u.l1
		for j := range u.w {
			u.w[j] = SoftThreshold(u.w[j], thr)
		}
	}
	u.acc.Reset()
	return true, nil
}

func (u *syncSGDUpdater) Export(cp *Checkpoint) { u.st.export(cp) }
func (u *syncSGDUpdater) Import(cp *Checkpoint) error {
	if err := importModel(u.w, cp); err != nil {
		return err
	}
	u.st.importFrom(cp)
	return nil
}

// SyncSGD is mini-batch SGD with bulk-synchronous rounds (Algorithm 1),
// implemented through the ASYNC engine with a BSP barrier: every round
// broadcasts the model, tasks every worker, waits for all partials, and
// applies one averaged update. fstar is the reference optimum used for
// error traces.
func SyncSGD(ac *core.Context, d *dataset.Dataset, p Params, fstar float64) (*Result, error) {
	if err := p.defaults(); err != nil {
		return nil, err
	}
	w, err := p.initModel(d.NumCols())
	if err != nil {
		return nil, err
	}
	dispatch, err := kernelDispatch(ac, GradOpName, p.Loss, p.SampleFrac, nil)
	if err != nil {
		return nil, err
	}
	_, lambda, l1, _ := splitProx(p.Loss)
	u := &syncSGDUpdater{
		w:      w,
		st:     newStepper(p.Momentum, d.NumCols()),
		lambda: lambda,
		l1:     l1,
		acc:    newRoundAccum(d.NumCols()),
	}
	return runLoop(ac, d, u, &loopSpec{
		Algo: "SGD", Name: "sgd", Key: "sgd.w",
		P: &p, Loss: p.Loss, FStar: fstar, Target: int64(p.Updates),
		Barrier: core.BSP(), Round: true, RoundBudget: true,
		Dispatch: dispatch,
	})
}

// asgdUpdater applies one collected gradient payload per model update
// through the shared SGD applier (dense eager, sparse lazy-L2).
type asgdUpdater struct {
	w  la.Vec
	ap *proxApplier
}

func (u *asgdUpdater) Model() la.Vec { return u.w }
func (u *asgdUpdater) Settle()       { u.ap.settle(u.w) }

func (u *asgdUpdater) Apply(payload any, attrs *core.Attrs, alpha float64) error {
	return u.ap.apply(u.w, payload, alpha, attrs.MiniBatch)
}

func (u *asgdUpdater) Export(cp *Checkpoint) { u.ap.st.export(cp) }
func (u *asgdUpdater) Import(cp *Checkpoint) error {
	if err := importModel(u.w, cp); err != nil {
		return err
	}
	u.ap.st.importFrom(cp)
	return nil
}

// ASGD is asynchronous mini-batch SGD (Algorithm 2): the driver broadcasts
// the model, tasks whichever workers the barrier admits, and applies an
// update per collected partial without waiting for stragglers. The barrier
// defaults to ASP; pass core.SSP/MinAvailable/etc. for bounded variants.
func ASGD(ac *core.Context, d *dataset.Dataset, p Params, fstar float64) (*Result, error) {
	if err := p.defaults(); err != nil {
		return nil, err
	}
	w, err := p.initModel(d.NumCols())
	if err != nil {
		return nil, err
	}
	dispatch, err := kernelDispatch(ac, GradOpName, p.Loss, p.SampleFrac, nil)
	if err != nil {
		return nil, err
	}
	u := &asgdUpdater{w: w, ap: newProxApplier(&p, d.NumCols())}
	return runLoop(ac, d, u, &loopSpec{
		Algo: "ASGD", Name: "asgd", Key: "sgd.w",
		P: &p, Loss: p.Loss, FStar: fstar, Target: int64(p.Updates),
		Dispatch: dispatch,
	})
}
