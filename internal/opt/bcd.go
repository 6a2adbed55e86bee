package opt

import (
	"fmt"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/la"
)

// Asynchronous block coordinate descent for least squares, in the family of
// asynchronous coordinate methods the paper cites (PASSCoDe, asynchronous
// Jacobi-style solvers). The driver picks a random coordinate block per
// dispatch; each worker computes, over its rows, the block gradient
//
//	g_J = 2 Σ_r a_{rJ} (x_r·w − y_r)
//
// and the diagonal curvature h_J = 2 Σ_r a_{rJ}², and the server applies a
// damped diagonal-Newton step on the block. Row partitioning means every
// worker contributes a partial (g_J, h_J) for the same block; asynchrony
// makes those partials stale in exactly the ASYNC sense.

// BCDConfig carries the block-coordinate knobs: coordinates per block (zero
// is min(32, cols)), the damping Step in (0,1] (zero is 1, the full
// diagonal-Newton step) and the block RNG seed.
type BCDConfig struct {
	BlockSize int
	Step      float64
	Seed      int64
}

func (c *BCDConfig) defaults(cols int) error {
	if c.BlockSize == 0 {
		c.BlockSize = min(32, cols)
	}
	if c.BlockSize < 0 || c.BlockSize > cols {
		return fmt.Errorf("opt: BCD block size %d outside (0,%d]", c.BlockSize, cols)
	}
	if c.Step == 0 {
		c.Step = 1
	}
	if c.Step < 0 || c.Step > 1 {
		return fmt.Errorf("opt: BCD step %v outside (0,1]", c.Step)
	}
	return nil
}

// BCDPartial is one worker's block gradient and curvature.
type BCDPartial struct {
	Block []int32
	G     la.Vec // block gradient over the worker's rows
	H     la.Vec // diagonal curvature over the worker's rows
}

func init() {
	registerKernelOp(bcdOpName, false, func(_ Loss, a GradOpArgs) core.Kernel {
		return bcdKernel(a.model(), a.Block)
	})
}

// bcdKernel computes the exact block gradient/curvature over every owned
// row at the broadcast model. Block membership is resolved through a
// persistent scratch lookup table (position+1, 0 = not in block) instead of
// a per-task map; entries are restored to zero before returning so the next
// task sees a clean table.
func bcdKernel(wBr core.DynBroadcast, block []int32) core.Kernel {
	return func(env *cluster.Env, parts []int, seed int64) (any, int, error) {
		w, err := modelVec(env, wBr)
		if err != nil {
			return nil, 0, err
		}
		if err := checkBlock(block, len(w)); err != nil {
			return nil, 0, err
		}
		lookup := env.Scratch().I32("opt.bcd.lookup", len(w))
		for k, j := range block {
			lookup[j] = int32(k) + 1
		}
		defer func() {
			for _, j := range block {
				lookup[j] = 0
			}
		}()
		g := la.GetVec(len(block))
		h := la.GetVec(len(block))
		rows := 0
		for _, pi := range parts {
			p, err := env.Partition(pi)
			if err != nil {
				la.PutVec(g)
				la.PutVec(h)
				return nil, 0, err
			}
			for r := 0; r < p.NumRows(); r++ {
				idx, val := p.X.RowNZ(r)
				resid := la.SparseDot(idx, val, w) - p.Y[r]
				for k, j := range idx {
					bi := lookup[j]
					if bi == 0 {
						continue
					}
					v := val[k]
					g[bi-1] += 2 * resid * v
					h[bi-1] += 2 * v * v
				}
				rows++
			}
		}
		if rows == 0 {
			la.PutVec(g)
			la.PutVec(h)
			return nil, 0, nil
		}
		return BCDPartial{Block: block, G: g, H: h}, rows, nil
	}
}

// bcdUpdater owns the block-coordinate driver state: the model, the block
// RNG (with a dispatch counter so checkpoints can replay the block
// sequence), and — in synchronous mode — the round's combined block
// gradient/curvature.
type bcdUpdater struct {
	w         la.Vec
	step      float64
	blockSize int
	rng       *rand.Rand
	perm      []int32
	sync      bool

	dispatches int64
	block      []int32 // sync mode: the round's block
	g, h       la.Vec  // sync mode: combined partials
	got        int
}

func newBCDUpdater(cols int, c BCDConfig, sync bool) *bcdUpdater {
	u := &bcdUpdater{
		w: la.NewVec(cols), step: c.Step, blockSize: c.BlockSize,
		rng:  rand.New(rand.NewSource(c.Seed + 1)),
		perm: make([]int32, cols), sync: sync,
	}
	for j := range u.perm {
		u.perm[j] = int32(j)
	}
	if sync {
		u.g = la.NewVec(c.BlockSize)
		u.h = la.NewVec(c.BlockSize)
	}
	return u
}

// pickBlock draws the next coordinate block, counting the draw so a
// checkpoint resume can fast-forward the RNG.
func (u *bcdUpdater) pickBlock() []int32 {
	u.dispatches++
	for k := 0; k < u.blockSize; k++ {
		swap := k + u.rng.Intn(len(u.perm)-k)
		u.perm[k], u.perm[swap] = u.perm[swap], u.perm[k]
	}
	return append([]int32(nil), u.perm[:u.blockSize]...)
}

func (u *bcdUpdater) Model() la.Vec { return u.w }
func (u *bcdUpdater) Settle()       {}

func (u *bcdUpdater) Apply(payload any, attrs *core.Attrs, _ float64) error {
	part, ok := payload.(BCDPartial)
	if !ok {
		return fmt.Errorf("unexpected payload %T", payload)
	}
	if u.sync {
		// combine every worker's partial into one exact block step
		la.Axpy(1, part.G, u.g)
		la.Axpy(1, part.H, u.h)
		u.got++
	} else {
		applyBlockStep(u.w, part.Block, part.G, part.H, u.step)
	}
	la.PutVec(part.G)
	la.PutVec(part.H)
	return nil
}

func (u *bcdUpdater) FlushRound(_ float64) (bool, error) {
	applied := u.got > 0
	if applied {
		applyBlockStep(u.w, u.block, u.g, u.h, u.step)
	}
	u.g.Zero()
	u.h.Zero()
	u.got = 0
	return applied, nil
}

func (u *bcdUpdater) Export(cp *Checkpoint) { cp.SetInt("dispatches", u.dispatches) }

func (u *bcdUpdater) Import(cp *Checkpoint) error {
	if err := importModel(u.w, cp); err != nil {
		return err
	}
	// replay the recorded number of block draws against the freshly seeded
	// RNG so the resumed run picks up the block sequence exactly where the
	// original stopped
	replay := cp.Int("dispatches")
	u.dispatches = 0
	for i := int64(0); i < replay; i++ {
		u.pickBlock()
	}
	return nil
}

// AsyncBCD runs the block coordinate method for p.Updates block updates.
// With core.BSP() it is a synchronous Jacobi block solver (all partials
// combined before the step); under ASP each worker's partial triggers its
// own damped step. The objective is plain least squares whatever p.Loss
// says. Besides the model, the checkpoint carries the dispatch count, which
// Import replays against the seeded RNG so a resumed run continues the block
// sequence exactly where the original stopped.
func AsyncBCD(ac *core.Context, d *dataset.Dataset, p Params, c BCDConfig, fstar float64) (*Result, error) {
	if err := p.runDefaults(10); err != nil {
		return nil, err
	}
	if err := c.defaults(d.NumCols()); err != nil {
		return nil, err
	}
	sync := isBSPBarrier(ac, p.Barrier)
	algo := "BCD-async"
	if sync {
		algo = "BCD"
	}
	u := newBCDUpdater(d.NumCols(), c, sync)
	dispatch, err := kernelDispatch(ac, bcdOpName, LeastSquares{}, 0, func(a *GradOpArgs) {
		a.Block = u.pickBlock()
		if u.sync {
			u.block = a.Block
		}
	})
	if err != nil {
		return nil, err
	}
	return runLoop(ac, d, u, &loopSpec{
		Algo: algo, Name: "bcd", Key: "bcd.w",
		P: &p, Loss: LeastSquares{}, FStar: fstar, Target: int64(p.Updates),
		Round:    sync,
		Dispatch: dispatch,
	})
}

// applyBlockStep performs the damped diagonal-Newton update on a block.
func applyBlockStep(w la.Vec, block []int32, g, h la.Vec, step float64) {
	for k, j := range block {
		if h[k] > 0 {
			w[j] -= step * g[k] / h[k]
		}
	}
}
