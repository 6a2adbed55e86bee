package opt

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/la"
)

// Restart-based generalized conjugate gradient for composite objectives —
// the CG family of the related work (Lu & Chen's conjugate-gradient ℓ1
// solver), run as bulk-synchronous full-gradient rounds on the unified
// runtime. Each round every worker returns its exact gradient sum at the
// broadcast model; the driver combines them into the mean smooth gradient
// g (the λ2 term rides the Composite loss), updates a Polak–Ribière+
// conjugate direction
//
//	β = max(0, g·(g − g_prev)/‖g_prev‖²),  dir ← −g + β·dir
//
// (reset to steepest descent whenever dir stops being a descent direction),
// steps w ← w + α·dir, and applies the ℓ1 prox soft(·, α·λ1) — generalized
// CG in the proximal-gradient sense: the conjugate recursion accelerates
// the smooth part, the prox keeps the composite part exact.
//
// Restarts reuse the checkpoint machinery: every RestartEvery updates the
// runtime's epoch boundary exports the driver state through a Checkpoint
// and immediately re-imports it. The conjugate direction and previous
// gradient are deliberately NOT exported, so the round trip is exactly a
// CG restart — and, by construction, a mid-run preempt/resume lands on the
// same state as a restart at that boundary, which is what makes resumed
// GCG runs bitwise-reproducible at restart boundaries.

// GCGConfig carries the generalized-CG knobs: RestartEvery updates between
// conjugate restarts (zero is 20; full mode), the Mode (gcgModes; empty is
// the first) and, in greedy mode, Atoms coordinates per round (zero is 32,
// capped at cols). Of the run's Params the solver reads the objective, step
// schedule, update budget and checkpoint/preempt/resume hooks; SampleFrac is
// ignored (every round is a full gradient pass) and the barrier is forced to
// BSP.
//
// Mode "greedy" switches from full-gradient conjugate rounds to greedy atom
// rounds: each round the driver's MaxIP selector (internal/la/maxip, shared
// with greedy CD) picks the Atoms steepest coordinates, the workers return
// exact per-atom gradients via the block kernel, and the driver takes one
// proximal step on just those atoms at the scheduled step size — the
// conditional-gradient-type "select the next atoms without an O(d) pass"
// move. There is no conjugate recursion over the changing active set, and
// RestartEvery is ignored; the selector's verification contract (rebuild on
// miss, permanent cyclic fallback on repeated misses) applies unchanged.
type GCGConfig struct {
	RestartEvery int
	Mode         string
	Atoms        int

	// exactBelow forwards to the greedy selector's maxip.Options.ExactBelow
	// (the test knob; zero = package default, negative = force the tree).
	exactBelow int
}

// gcgModes are gcg's round kinds: the full-gradient conjugate solver, or
// greedy MaxIP atom selection.
var gcgModes = []string{"full", "greedy"}

func (c *GCGConfig) defaults() error {
	if c.RestartEvery < 0 {
		return fmt.Errorf("opt: GCG restart interval %d must be non-negative", c.RestartEvery)
	}
	if c.RestartEvery == 0 {
		c.RestartEvery = 20
	}
	if c.Atoms < 0 {
		return fmt.Errorf("opt: GCG atoms %d must be non-negative", c.Atoms)
	}
	return checkMode("gcg", gcgModes, &c.Mode)
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

// scheduledStep is greedy gcg's coordinate rule: one proximal-gradient step
// at the scheduled size on the mean-unit composite gradient of the atom
// (kernel gradients are sum-unit; the curvature the block kernel also
// returns, and cd's damping, are not used).
func scheduledStep(n int, l2, l1, _ float64) coordStep {
	rows := float64(n)
	return func(wj, g, _, alpha float64) (float64, bool) {
		gj := g/rows + l2*wj
		return SoftThreshold(wj-alpha*gj, alpha*l1), true
	}
}

// newGreedyGCGUpdater is greedy coordinate descent with the scheduled step:
// block pick, residual-delta chain, selector verification and resume are
// cd's (cd.go), under the "gcg.delta" broadcast id.
func newGreedyGCGUpdater(d *dataset.Dataset, loss Loss, c GCGConfig) (*cdUpdater, error) {
	cc := CDConfig{BlockSize: c.Atoms, Mode: "greedy", exactBelow: c.exactBelow}
	if err := cc.defaults(d.NumCols()); err != nil {
		return nil, err
	}
	return newCDUpdater(d, loss, cc, scheduledStep)
}

// GCG runs restart-based generalized conjugate gradient over the composite
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
	if c.Mode == "greedy" {
		u, err := newGreedyGCGUpdater(d, p.Loss, c)
		if err != nil {
			return nil, err
		}
		return u.run(ac, d, &p, "GCG-greedy", "gcg", fstar)
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
