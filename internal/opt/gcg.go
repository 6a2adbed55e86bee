package opt

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/la"
)

// Restart-based nonlinear conjugate gradient for composite objectives, run
// as bulk-synchronous full-gradient rounds on the unified runtime. Each round
// every worker returns its exact gradient sum at the broadcast model; the
// driver combines them into the mean smooth gradient g (the λ2 term rides
// the Composite loss), updates a Polak–Ribière+ conjugate direction
//
//	β = max(0, g·(g − g_prev)/‖g_prev‖²),  dir ← −g + β·dir
//
// (reset to steepest descent whenever dir stops being a descent direction),
// steps w ← w + α·dir at the scheduled size, and then soft-thresholds,
// w ← soft(w, α·λ1). That is Polak–Ribière+ CG on the smooth part followed
// by the ℓ1 prox: with λ1 = 0 it is plain restarted nonlinear CG, and once
// λ1 > 0 it carries no convergence guarantee — the conjugate recursion knows
// nothing of the thresholding. It is not Lu & Chen's generalized CG for
// ℓ1-regularised QPs (arXiv:1511.07837); that method is ROADMAP item 11(a).
//
// Restarts reuse the checkpoint machinery: every RestartEvery updates the
// runtime's epoch boundary exports the driver state through a Checkpoint
// and immediately re-imports it. The conjugate direction and previous
// gradient are deliberately NOT exported, so the round trip is exactly a
// CG restart — and, by construction, a mid-run preempt/resume lands on the
// same state as a restart at that boundary, which is what makes resumed
// GCG runs bitwise-reproducible at restart boundaries.

// GCGConfig carries the conjugate-gradient knobs: RestartEvery updates
// between conjugate restarts (zero is 20). Of the run's Params the solver
// reads the objective, step schedule, update budget and
// checkpoint/preempt/resume hooks; SampleFrac is ignored (every round is a
// full gradient pass) and the barrier is forced to BSP. gcg has no
// selection modes.
type GCGConfig struct {
	RestartEvery int
}

func (c *GCGConfig) defaults() error {
	if c.RestartEvery < 0 {
		return fmt.Errorf("opt: GCG restart interval %d must be non-negative", c.RestartEvery)
	}
	if c.RestartEvery == 0 {
		c.RestartEvery = 20
	}
	return nil
}

// gcgUpdater owns the conjugate-gradient driver state: the model, the
// round's gradient accumulator, and the conjugate recursion (direction and
// previous gradient).
type gcgUpdater struct {
	w      la.Vec
	l1     float64
	acc    la.Vec // round gradient sum across workers
	rows   int
	g      la.Vec // mean gradient scratch
	dir    la.Vec
	gPrev  la.Vec
	hasDir bool
}

func newGCGUpdater(cols int, loss Loss) *gcgUpdater {
	_, _, l1, _ := splitProx(loss)
	return &gcgUpdater{
		w: la.NewVec(cols), l1: l1,
		acc: la.NewVec(cols), g: la.NewVec(cols),
		dir: la.NewVec(cols), gPrev: la.NewVec(cols),
	}
}

func (u *gcgUpdater) Model() la.Vec { return u.w }
func (u *gcgUpdater) Settle()       {}

func (u *gcgUpdater) Apply(payload any, attrs *core.Attrs, _ float64) error {
	g, ok := payload.(la.Vec)
	if !ok {
		return fmt.Errorf("unexpected payload %T", payload)
	}
	la.Axpy(1, g, u.acc)
	u.rows += attrs.MiniBatch
	la.PutVec(g)
	return nil
}

func (u *gcgUpdater) FlushRound(alpha float64) (bool, error) {
	rows := u.rows
	u.rows = 0
	if rows == 0 {
		u.acc.Zero()
		return false, nil
	}
	la.ScaleAddInto(u.g, 1/float64(rows), u.acc, 0, u.acc) // g = acc/rows
	u.acc.Zero()

	if !u.hasDir {
		la.ScaleAddInto(u.dir, -1, u.g, 0, u.g)
	} else {
		// Polak–Ribière+ with automatic restart on loss of descent
		denom := la.Dot(u.gPrev, u.gPrev)
		beta := 0.0
		if denom > 0 {
			beta = (la.Dot(u.g, u.g) - la.Dot(u.g, u.gPrev)) / denom
			if beta < 0 {
				beta = 0
			}
		}
		la.ScaleAddInto(u.dir, beta, u.dir, -1, u.g)
		if la.Dot(u.dir, u.g) > 0 {
			la.ScaleAddInto(u.dir, -1, u.g, 0, u.g)
		}
	}
	u.gPrev.CopyFrom(u.g)
	u.hasDir = true

	la.Axpy(alpha, u.dir, u.w)
	if u.l1 > 0 {
		thr := alpha * u.l1
		for j := range u.w {
			u.w[j] = SoftThreshold(u.w[j], thr)
		}
	}
	return true, nil
}

// Export carries only the model and update clock: the conjugate direction
// is transient by design, so a checkpoint round trip is a CG restart.
func (u *gcgUpdater) Export(*Checkpoint) {}

func (u *gcgUpdater) Import(cp *Checkpoint) error {
	if err := importModel(u.w, cp); err != nil {
		return err
	}
	u.hasDir = false
	u.dir.Zero()
	u.gPrev.Zero()
	u.acc.Zero()
	u.rows = 0
	return nil
}

// restart performs the epoch-boundary conjugate restart by literally
// round-tripping the driver state through the checkpoint export/import
// path — the same state transition a preempt/resume at this boundary
// produces.
func (u *gcgUpdater) restart(global int64) error {
	cp := &Checkpoint{Algorithm: "gcg", W: u.w.Clone(), Updates: global}
	u.Export(cp)
	return u.Import(cp)
}

// GCG runs restart-based conjugate gradient over the composite
// objective p.Loss. fstar is the reference optimum used for error traces.
func GCG(ac *core.Context, d *dataset.Dataset, p Params, c GCGConfig, fstar float64) (*Result, error) {
	if err := p.needStep(); err != nil {
		return nil, err
	}
	if err := p.runDefaults(10); err != nil {
		return nil, err
	}
	if err := c.defaults(); err != nil {
		return nil, err
	}
	u := newGCGUpdater(d.NumCols(), p.Loss)
	dispatch, err := kernelDispatch(ac, fullGradOpName, p.Loss, 0, nil)
	if err != nil {
		return nil, err
	}
	return runLoop(ac, d, u, &loopSpec{
		Algo: "GCG", Name: "gcg", Key: "gcg.w",
		P: &p, Loss: p.Loss, FStar: fstar, Target: int64(p.Updates),
		Barrier: core.BSP(), Round: true,
		EpochLen: int64(c.RestartEvery),
		EpochBegin: func(global int64) error {
			if global == 0 {
				return nil // run start: nothing to restart
			}
			return u.restart(global)
		},
		Dispatch: dispatch,
	})
}
