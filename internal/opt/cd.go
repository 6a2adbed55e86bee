package opt

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/la"
)

// Proximal (block) coordinate descent on the unified runtime — the CGD
// family of the related work (linlearn's cgd_cycle, Lu & Chen's ℓ1-QP CG),
// generalized to composite elastic-net objectives through the prox seam.
// Each BSP round the driver picks a coordinate block, every worker returns
// the exact block gradient and diagonal curvature over its rows, and the
// driver takes one preconditioned prox step per coordinate:
//
//	w_j ← soft(w_j − τ_j·(g_j + nλ2·w_j), τ_j·nλ1),  τ_j = step/(h_j + nλ2)
//
// (sum units: g_j, h_j are row sums, n the dataset rows) — the
// `prox.call_single` idiom, exact coordinate minimizer at step = 1 for
// least squares.
//
// Incremental inner products: workers keep per-row residuals r_i = x_i·w
// between rounds and the driver broadcasts each round's coordinate delta,
// so a worker advances its residuals via the column index in
// O(nnz of changed columns) and evaluates the block gradient in
// O(nnz of block columns) — never O(n·d). A worker whose residual state is
// missing or stale (cold start, resume, engine reset) rebuilds it from the
// model broadcast in one O(partition nnz) pass and is incremental again
// from the next round.

// CDConfig carries the proximal coordinate-descent knobs: coordinates per
// block (zero is 32, capped at cols), the block order Mode (cdModes; empty
// is the first), the damping Step in (0,1] (zero is 1, the full
// preconditioned prox step) and the block RNG seed of random mode. Of the
// run's Params the solver reads the objective, the update budget, trace
// resolution and the checkpoint/preempt/resume hooks; Step and SampleFrac
// are unused (a full-pass coordinate solver with its own damping), and the
// barrier is forced to BSP — the block step needs every worker's rows.
type CDConfig struct {
	BlockSize int
	Mode      string
	Step      float64
	Seed      int64

	// exactBelow forwards to the greedy selector's maxip.Options.ExactBelow
	// (tests pin tree-vs-scan selector equivalence through it; zero is the
	// package default threshold, negative forces the tournament tree).
	exactBelow int
}

// cdModes are cd's block orders: cyclic cursor, seeded random draw, or
// greedy (Gauss-Southwell via the driver-side MaxIP index).
var cdModes = []string{"cyclic", "random", "greedy"}

func (c *CDConfig) defaults(cols int) error {
	if c.BlockSize <= 0 {
		c.BlockSize = 32
	}
	c.BlockSize = min(c.BlockSize, cols)
	if c.Step == 0 {
		c.Step = 1
	}
	if c.Step < 0 || c.Step > 1 {
		return fmt.Errorf("opt: CD step %v outside (0,1]", c.Step)
	}
	return checkMode("cd", cdModes, &c.Mode)
}

// CDDelta is the round-delta broadcast riding alongside the model: the
// coordinate changes FlushRound applied at the transition Round−1 → Round.
// Workers whose residual stamp matches (RunID, Round−1) advance
// incrementally; anyone else rebuilds from the model broadcast. RunID fences
// runs sharing an engine so one job's residuals can never absorb another
// job's delta.
type CDDelta struct {
	RunID int64
	Round int64
	Delta *la.DeltaVec // nil only before the first flush
}

// cdRunSeq hands every CD run a process-unique residual fence.
var cdRunSeq atomic.Int64

// cdPartState is one partition's persistent worker-side residual state.
type cdPartState struct {
	cv    *la.ColView // column index of the partition (data-constant)
	r     la.Vec      // r_i = x_i·w at (runID, round)
	runID int64
	round int64
}

// cdState lives in the worker Env's untyped KV store: per-partition column
// indexes and residuals. StoreClear (engine reset) naturally invalidates
// it; the round/run stamps catch every softer staleness.
type cdState struct {
	parts map[int]*cdPartState
}

func init() {
	registerKernelOp(cdOpName, false, func(loss Loss, a GradOpArgs) core.Kernel {
		lin, _, _, _ := splitProx(loss) // a resolved objective always has a linear core
		return cdKernel(lin, curvOf(lin), a.model(), a.aux(), a.Block)
	})
}

// cdKernel evaluates the block gradient g_J = Σ_i ℓ'(r_i, y_i)·x_iJ and
// curvature h_J = curv·Σ_i x_iJ² over the worker's rows, maintaining the
// per-row residuals incrementally from the delta broadcast.
func cdKernel(lin LinearLoss, curv float64, wBr, dBr core.DynBroadcast, block []int32) core.Kernel {
	return func(env *cluster.Env, parts []int, seed int64) (any, int, error) {
		dv, err := dBr.Value(env)
		if err != nil {
			return nil, 0, err
		}
		dd, ok := dv.(CDDelta)
		if !ok {
			return nil, 0, fmt.Errorf("opt: cd delta broadcast is %T", dv)
		}
		st := env.StoreGetOrCreate("opt.cd.state", func() any {
			return &cdState{parts: map[int]*cdPartState{}}
		}).(*cdState)
		g := la.GetVec(len(block))
		h := la.GetVec(len(block))
		fail := func(err error) (any, int, error) {
			la.PutVec(g)
			la.PutVec(h)
			return nil, 0, err
		}
		rows := 0
		for _, pi := range parts {
			p, err := env.Partition(pi)
			if err != nil {
				return fail(err)
			}
			if err := checkBlock(block, p.X.NumCols); err != nil {
				return fail(err)
			}
			ps := st.parts[pi]
			if ps == nil {
				ps = &cdPartState{cv: la.NewColView(p.X), r: la.NewVec(p.NumRows()), runID: -1}
				st.parts[pi] = ps
			}
			switch {
			case ps.runID == dd.RunID && ps.round == dd.Round:
				// already current (idempotent re-dispatch)
			case ps.runID == dd.RunID && ps.round == dd.Round-1 && dd.Delta != nil:
				// incremental: advance residuals by the changed columns only
				ps.cv.ApplyDelta(dd.Delta, ps.r)
				ps.round = dd.Round
			default:
				// cold start, resume, or missed rounds: rebuild from the
				// model broadcast in one O(partition nnz) pass
				w, err := modelVec(env, wBr)
				if err != nil {
					return fail(err)
				}
				p.X.MatVec(w, ps.r)
				ps.runID, ps.round = dd.RunID, dd.Round
			}
			for k, j := range block {
				colRows, colVals := ps.cv.Col(j)
				var gj, hj float64
				for t, i := range colRows {
					gj += lin.GradCoeff(ps.r[i], p.Y[i]) * colVals[t]
					hj += colVals[t] * colVals[t]
				}
				g[k] += gj
				h[k] += curv * hj
			}
			rows += p.NumRows()
		}
		if rows == 0 {
			return fail(nil)
		}
		return BCDPartial{Block: block, G: g, H: h}, rows, nil
	}
}

// coordStep is the per-coordinate step rule — the one thing cd and greedy
// gcg differ in: from w_j, the round's summed block gradient g and curvature
// h on j, and the scheduled step size, it returns the coordinate's new value
// (ok=false leaves the coordinate alone). A rule is built from the dataset
// rows, the penalties and CDConfig.Step.
type coordStep func(wj, g, h, alpha float64) (uj float64, ok bool)

// proxNewtonStep is cd's rule, the damped preconditioned prox step of the
// file comment (sum units; the schedule is unused).
func proxNewtonStep(n int, l2, l1, damp float64) coordStep {
	nl2, nl1 := float64(n)*l2, float64(n)*l1
	return func(wj, g, h, _ float64) (float64, bool) {
		den := h + nl2
		if den <= 0 {
			return 0, false
		}
		tau := damp / den
		return SoftThreshold(wj-tau*(g+nl2*wj), tau*nl1), true
	}
}

// cdUpdater owns the coordinate-descent driver state: the model, the block
// cursor/RNG (dispatch-counted for checkpoint replay, like BCD), the
// round's combined partials, and the last applied coordinate delta. Greedy
// gcg runs on it too, with its own step rule (gcg.go).
type cdUpdater struct {
	w          la.Vec
	step       coordStep
	blockSize  int
	cyclic     bool
	sel        *gsSelector // greedy mode; nil otherwise
	rng        *rand.Rand
	perm       []int32
	runID      int64
	dispatches int64

	round int64   // applied block rounds — the delta-broadcast stamp
	block []int32 // the in-flight round's (sorted) block
	g, h  la.Vec
	got   int
	delta *la.DeltaVec // last round's coordinate changes (driver-owned)
}

// newCDUpdater builds the updater for the objective loss under c (defaults
// applied), stepping by the rule step builds.
func newCDUpdater(d *dataset.Dataset, loss Loss, c CDConfig, step func(n int, l2, l1, damp float64) coordStep) (*cdUpdater, error) {
	cols := d.NumCols()
	lin, l2, l1, ok := splitProx(loss)
	if !ok {
		return nil, fmt.Errorf("opt: cd cannot decompose objective %q into a linear core", loss.Name())
	}
	u := &cdUpdater{
		w: la.NewVec(cols), step: step(d.NumRows(), l2, l1, c.Step), blockSize: c.BlockSize,
		cyclic: c.Mode != "random",
		rng:    rand.New(rand.NewSource(c.Seed + 1)),
		perm:   make([]int32, cols),
		runID:  cdRunSeq.Add(1),
		g:      la.NewVec(c.BlockSize), h: la.NewVec(c.BlockSize),
	}
	if c.Mode == "greedy" {
		u.sel = newGSSelector(d, lin, l2, l1, u.w, c.exactBelow)
	}
	for j := range u.perm {
		u.perm[j] = int32(j)
	}
	return u, nil
}

// pickBlock draws the next coordinate block — the cyclic cursor position or
// the random draw both derive from the dispatch counter, so a checkpoint
// resume replays the exact block sequence. Blocks are returned sorted (the
// delta broadcast keeps the DeltaVec index-order contract; within-block
// order is irrelevant to the math).
//
// In greedy mode the block is instead the Gauss-Southwell top-|score| set
// from the selector's index — state-dependent, so resume rebuilds the
// selector rather than replaying draws. Once the selector has tripped its
// verification fallback, picks revert to the cyclic cursor (the dispatch
// counter kept advancing through the greedy picks, so the cursor is
// well-defined).
func (u *cdUpdater) pickBlock() []int32 {
	if u.sel != nil && !u.sel.fallback {
		u.dispatches++
		return u.sel.pick(u.blockSize)
	}
	d := len(u.perm)
	block := make([]int32, u.blockSize)
	if u.cyclic {
		pos := int(u.dispatches) * u.blockSize % d
		for k := range block {
			block[k] = int32((pos + k) % d)
		}
	} else {
		for k := 0; k < u.blockSize; k++ {
			swap := k + u.rng.Intn(d-k)
			u.perm[k], u.perm[swap] = u.perm[swap], u.perm[k]
		}
		copy(block, u.perm[:u.blockSize])
	}
	u.dispatches++
	slices.Sort(block)
	return block
}

// exportDelta stages the delta broadcast for the next round. The DeltaVec
// is cloned: broadcast history may outlive the driver's round state.
func (u *cdUpdater) exportDelta() CDDelta {
	dd := CDDelta{RunID: u.runID, Round: u.round}
	if u.delta != nil {
		dd.Delta = u.delta.Clone()
	}
	return dd
}

func (u *cdUpdater) Model() la.Vec { return u.w }
func (u *cdUpdater) Settle()       {}

func (u *cdUpdater) Apply(payload any, _ *core.Attrs, _ float64) error {
	part, ok := payload.(BCDPartial)
	if !ok {
		return fmt.Errorf("unexpected payload %T", payload)
	}
	// greedy blocks can come up short of BlockSize when the data stores
	// fewer distinct columns; the accumulators are sized for the maximum
	la.Axpy(1, part.G, u.g[:len(part.G)])
	la.Axpy(1, part.H, u.h[:len(part.H)])
	u.got++
	la.PutVec(part.G)
	la.PutVec(part.H)
	return nil
}

func (u *cdUpdater) FlushRound(alpha float64) (bool, error) {
	if u.got == 0 {
		u.g.Zero()
		u.h.Zero()
		return false, nil
	}
	if u.sel != nil && !u.sel.fallback {
		// the workers' summed block gradient is ground truth for the scores
		// this block was selected on; verify may rebuild the selector (at
		// the still-pre-step model) or trip the permanent cyclic fallback
		u.sel.verify(u.block, u.g[:len(u.block)])
	}
	delta := &la.DeltaVec{N: len(u.w)}
	for k, j := range u.block {
		uj, ok := u.step(u.w[j], u.g[k], u.h[k], alpha)
		if !ok {
			continue
		}
		if d := uj - u.w[j]; d != 0 {
			delta.Idx = append(delta.Idx, j)
			delta.Val = append(delta.Val, d)
			u.w[j] = uj
		}
	}
	if u.sel != nil && !u.sel.fallback {
		u.sel.advance(delta)
	}
	u.delta = delta
	u.round++
	u.g.Zero()
	u.h.Zero()
	u.got = 0
	return true, nil
}

func (u *cdUpdater) Export(cp *Checkpoint) { cp.SetInt("dispatches", u.dispatches) }

func (u *cdUpdater) Import(cp *Checkpoint) error {
	if err := importModel(u.w, cp); err != nil {
		return err
	}
	// replay the recorded number of block draws so the resumed run picks up
	// the block sequence exactly where the original stopped; the residual
	// delta chain restarts (fresh run fence → workers rebuild once)
	replay := cp.Int("dispatches")
	u.dispatches = 0
	if u.sel != nil {
		// greedy picks are state-dependent, not counter-derived: rebuild the
		// selector at the restored model instead of replaying draws. The
		// counter still restores so a later fallback's cyclic cursor lands
		// where the original run's would have.
		u.dispatches = replay
		u.sel.misses, u.sel.rebuilt, u.sel.fallback = 0, false, false
		u.sel.reset()
	} else {
		for i := int64(0); i < replay; i++ {
			u.pickBlock()
		}
	}
	u.round = 0
	u.delta = nil
	u.runID = cdRunSeq.Add(1)
	return nil
}

// CD runs proximal coordinate descent over the composite objective
// p.Loss. fstar is the reference optimum used for error traces.
func CD(ac *core.Context, d *dataset.Dataset, p Params, c CDConfig, fstar float64) (*Result, error) {
	if err := p.runDefaults(10); err != nil {
		return nil, err
	}
	if err := c.defaults(d.NumCols()); err != nil {
		return nil, err
	}
	u, err := newCDUpdater(d, p.Loss, c, proxNewtonStep)
	if err != nil {
		return nil, err
	}
	return u.run(ac, d, &p, "CD", "cd", fstar)
}

// run drives u as solver name: bulk-synchronous rounds, each dispatching
// opt.cd on the round's block against the model and the name.delta stamp.
func (u *cdUpdater) run(ac *core.Context, d *dataset.Dataset, p *Params, algo, name string, fstar float64) (*Result, error) {
	deltaID := name + ".delta"
	dispatch, err := kernelDispatch(ac, cdOpName, p.Loss, 0, func(a *GradOpArgs) {
		u.block = u.pickBlock()
		dBr := ac.ASYNCbroadcast(deltaID, u.exportDelta())
		a.AuxID, a.AuxVersion, a.Block = dBr.ID, dBr.Version, u.block
	})
	if err != nil {
		return nil, err
	}
	return runLoop(ac, d, u, &loopSpec{
		Algo: algo, Name: name, Key: name + ".w",
		P: p, Loss: p.Loss, FStar: fstar, Target: int64(p.Updates),
		Barrier: core.BSP(), Round: true,
		Dispatch: dispatch,
	})
}
