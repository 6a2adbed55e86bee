package opt

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/la"
)

// ADMM solves the consensus least-squares problem
//
//	min Σ_i ‖A_i x − b_i‖²  over workers i
//
// with the alternating direction method of multipliers: each worker keeps a
// local primal x_i and dual u_i, solves its proximal subproblem with a
// local conjugate-gradient solve, and the server averages (x_i + u_i) into
// the consensus z. The paper (§7) lists ADMM among the methods ASYNC's
// primitives support: the synchronous variant is a BSP round per z-update;
// the asynchronous variant (in the spirit of Zhang & Kwok 2014) updates z
// from whichever workers have reported, under any barrier.
//
// Worker-local state (x_i, u_i, cached Gram operator) lives in the worker
// Env store; the consensus z travels via the ASYNCbroadcaster.

// ADMMConfig carries the consensus-solver knobs: the augmented-Lagrangian
// penalty Rho (zero is 1) and the local conjugate-gradient solve's tolerance
// (zero is 1e-8) and iteration cap (zero is 200). Params.Updates is the
// z-update budget and Params.SnapshotEvery the trace resolution in
// z-updates (zero is 5).
type ADMMConfig struct {
	Rho     float64
	CGTol   float64
	CGIters int
}

func (c *ADMMConfig) defaults() {
	if c.Rho <= 0 {
		c.Rho = 1
	}
	if c.CGTol <= 0 {
		c.CGTol = 1e-8
	}
	if c.CGIters <= 0 {
		c.CGIters = 200
	}
}

// admmState is the per-partition ADMM state kept in the Env store, plus the
// subproblem scratch (rhs, MatVec temporary) sized once per partition so the
// steady-state local solve allocates nothing.
type admmState struct {
	x, u la.Vec
	rhs  la.Vec
	tmp  la.Vec // length NumRows of the partition
}

// ADMMPartial is a worker's contribution to the consensus update.
type ADMMPartial struct {
	XPlusU la.Vec
	// PrimalSq is ‖x_i − z‖², the worker's primal residual contribution.
	PrimalSq float64
}

func init() {
	registerKernelOp(admmOpName, false, func(_ Loss, a GradOpArgs) core.Kernel {
		return admmKernel(a.model(), a.Rho, a.CGTol, a.CGIters)
	})
}

// admmKernel runs each owned partition's round of scaled consensus ADMM
// (Boyd et al. 2011, §7.1) at the consensus z the task reads: first the dual
// step of the partition's previous round, u_i += x_i − z, now that z is the
// consensus that round produced (a partition state created fresh takes
// none); then the proximal subproblem for x_i. It returns Σ(x_i + u_i) with
// the partition count as the batch size (partitions are ADMM's "agents").
func admmKernel(zBr core.DynBroadcast, rho, cgTol float64, cgIters int) core.Kernel {
	return func(env *cluster.Env, parts []int, seed int64) (any, int, error) {
		z, err := modelVec(env, zBr)
		if err != nil {
			return nil, 0, err
		}
		cols := len(z)
		sum := la.GetVec(cols)
		var primalSq float64
		n := 0
		// all partition states live under one store key so the steady-state
		// lookup is a map read, not a per-task key allocation
		states := env.StoreGetOrCreate("opt.admm.states", func() any {
			return map[int]*admmState{}
		}).(map[int]*admmState)
		for _, pi := range parts {
			p, err := env.Partition(pi)
			if err != nil {
				la.PutVec(sum)
				return nil, 0, err
			}
			st, ok := states[pi]
			if !ok {
				st = &admmState{
					x: la.NewVec(cols), u: la.NewVec(cols),
					rhs: la.NewVec(cols), tmp: la.NewVec(p.X.NumRows),
				}
				states[pi] = st
			} else {
				// the previous round's dual step, at the consensus it
				// produced: u_i += x_i − z
				for j := range st.u {
					st.u[j] += st.x[j] - z[j]
				}
			}

			// subproblem: (2 A_iᵀA_i + ρI) x = 2 A_iᵀ b_i + ρ (z − u_i)
			rhs := st.rhs
			p.X.MatTVec(p.Y, rhs)
			la.Scale(2, rhs)
			for j := range rhs {
				rhs[j] += rho * (z[j] - st.u[j])
			}
			tmp := st.tmp
			mul := func(x, y la.Vec) {
				p.X.MatVec(x, tmp)
				p.X.MatTVec(tmp, y)
				la.Scale(2, y)
				la.Axpy(rho, x, y)
			}
			if _, err := la.ConjGrad(mul, rhs, st.x, cgTol, cgIters); err != nil {
				la.PutVec(sum)
				return nil, 0, fmt.Errorf("opt: ADMM partition %d: %w", pi, err)
			}
			// ship x_i + u_i at the dual the solve used; the dual steps at
			// the start of the next task, against the z it reads
			for j := range st.u {
				sum[j] += st.x[j] + st.u[j]
				d := st.x[j] - z[j]
				primalSq += d * d
			}
			n++
		}
		if n == 0 {
			la.PutVec(sum)
			return nil, 0, nil
		}
		return ADMMPartial{XPlusU: sum, PrimalSq: primalSq}, n, nil
	}
}

// admmContrib is one worker's latest consensus contribution: the sum of
// (x_i + u_i) over its partitions plus how many partitions it covered.
type admmContrib struct {
	sum la.Vec
	n   int
}

// admmUpdater re-averages the consensus z from the latest contribution of
// each worker — every contribution is first-class driver state, exported
// with the checkpoint so a resumed asynchronous run re-averages from
// exactly the mix it was preempted at.
type admmUpdater struct {
	z      la.Vec
	latest map[int]admmContrib
}

func (u *admmUpdater) Model() la.Vec { return u.z }
func (u *admmUpdater) Settle()       {}

func (u *admmUpdater) Apply(payload any, attrs *core.Attrs, _ float64) error {
	part, ok := payload.(ADMMPartial)
	if !ok {
		return fmt.Errorf("unexpected payload %T", payload)
	}
	// copy into the worker's persistent contribution buffer and recycle
	// the pooled payload (latest outlives the round)
	c := u.latest[attrs.Worker]
	if len(c.sum) != len(part.XPlusU) {
		c.sum = la.NewVec(len(part.XPlusU))
	}
	c.sum.CopyFrom(part.XPlusU)
	c.n = attrs.MiniBatch
	u.latest[attrs.Worker] = c
	la.PutVec(part.XPlusU)
	return nil
}

// FlushRound recomputes z as the mean over all known partition
// contributions (the round's own collects included).
func (u *admmUpdater) FlushRound(_ float64) (bool, error) {
	total := 0
	u.z.Zero()
	for _, c := range u.latest {
		la.Axpy(1, c.sum, u.z)
		total += c.n
	}
	if total == 0 {
		return false, nil
	}
	la.Scale(1/float64(total), u.z)
	return true, nil
}

func (u *admmUpdater) Export(cp *Checkpoint) {
	for w, c := range u.latest {
		cp.SetVec(fmt.Sprintf("latest.sum.%d", w), c.sum)
		cp.SetInt(fmt.Sprintf("latest.n.%d", w), int64(c.n))
	}
}

func (u *admmUpdater) Import(cp *Checkpoint) error {
	if err := importModel(u.z, cp); err != nil {
		return err
	}
	for name, v := range cp.Vecs {
		var w int
		if _, err := fmt.Sscanf(name, "latest.sum.%d", &w); err != nil {
			continue
		}
		u.latest[w] = admmContrib{sum: v.Clone(), n: int(cp.Int(fmt.Sprintf("latest.n.%d", w)))}
	}
	return nil
}

// ADMM runs consensus ADMM for p.Updates z-updates. Synchronous (BSP) when
// p.Barrier is core.BSP(): every z-update averages all partitions'
// (x_i + u_i). Under ASP/SSP the server re-averages from the latest
// contribution of each worker as results arrive — asynchronous consensus
// ADMM. The objective is plain least squares whatever p.Loss says; the
// checkpoint carries z and the per-worker consensus contributions
// (worker-side primal/dual iterates are soft state a resumed run re-seeds).
// fstar is the reference optimum of the global least-squares problem.
func ADMM(ac *core.Context, d *dataset.Dataset, p Params, c ADMMConfig, fstar float64) (*Result, error) {
	if err := p.runDefaults(5); err != nil {
		return nil, err
	}
	c.defaults()
	u := &admmUpdater{z: la.NewVec(d.NumCols()), latest: map[int]admmContrib{}}
	algo := "ADMM-async"
	if isBSPBarrier(ac, p.Barrier) {
		algo = "ADMM"
	}
	dispatch, err := kernelDispatch(ac, admmOpName, LeastSquares{}, 0, func(a *GradOpArgs) {
		a.Rho, a.CGTol, a.CGIters = c.Rho, c.CGTol, c.CGIters
	})
	if err != nil {
		return nil, err
	}
	return runLoop(ac, d, u, &loopSpec{
		Algo: algo, Name: "admm", Key: "admm.z",
		P: &p, Loss: LeastSquares{}, FStar: fstar, Target: int64(p.Updates),
		Round: true, StreamRound: true, RoundBudget: true,
		Dispatch: dispatch,
	})
}

// isBSPBarrier probes whether f waits for every alive worker. It decides
// behaviour, not just a label: cd runs BSP rounds or per-partial steps by
// it, and admm's trace label follows it. A nil f is not BSP here; cd treats
// a nil barrier as BSP before asking.
func isBSPBarrier(ac *core.Context, f core.BarrierFunc) bool {
	if f == nil {
		return false
	}
	st := ac.STAT()
	if st.AliveWorkers == 0 {
		return false
	}
	// probe: BSP-like predicates are false whenever any worker is busy
	probe := st
	probe.AvailableWorkers = st.AliveWorkers - 1
	return f(st) && !f(probe)
}
