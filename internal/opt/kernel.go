package opt

import (
	"fmt"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/la"
)

// Allocation discipline: the kernels in this file are the per-task compute
// path of every solver, so they are written to allocate nothing in steady
// state. Accumulators that travel with the task result come from la.GetVec
// (the driver returns them with la.PutVec once the update is applied),
// purely local temporaries come from the worker's Env scratch store, and
// sampling uses the per-worker RNG reseeded with the task seed. The only
// unavoidable per-task allocation is boxing the result payload into `any`.
// alloc_test.go pins the inner loops at zero allocations per run.

// SagaPartial is a worker's locally reduced SAGA contribution: the sum of
// current-gradient terms, the sum of historical-gradient terms, and the
// sample count (carried in the result attributes).
type SagaPartial struct {
	Sum     la.Vec // Σ_{i∈S} ∇f_i(w_current)
	HistSum la.Vec // Σ_{i∈S} ∇f_i(w_hist(i))
}

// GradOpArgs parameterize the registered kernel ops — the one task form
// every AC-based solver dispatches on every transport: everything a worker
// needs to rebuild the kernel. Loss, L2 and L1 are the ObjectiveSpec fields
// of the driver's loss (see wireObjective), so the worker resolves the same
// Loss value the driver holds. In process the struct is handed to the op as
// is; over TCP it crosses as payloadGradOpArgs (sparse.go).
type GradOpArgs struct {
	BroadcastID string
	Version     int64
	Frac        float64
	Parts       []int
	Loss        string
	L2, L1      float64

	// The rest is optional: zero for the ops that do not read it.
	AuxID      string  // a second broadcast (with AuxVersion): svrg's anchor, the
	AuxVersion int64   // cd.delta/gcg.delta stamp
	Block      []int32 // opt.cd, opt.bcd: the coordinate block of the round
	Rho, CGTol float64 // opt.admm: penalty and local-solve tolerance
	CGIters    int     // opt.admm: local-solve iteration cap
}

func (a GradOpArgs) model() core.DynBroadcast {
	return core.DynBroadcast{ID: a.BroadcastID, Version: a.Version}
}

func (a GradOpArgs) aux() core.DynBroadcast {
	return core.DynBroadcast{ID: a.AuxID, Version: a.AuxVersion}
}

// The registered ops: GradKernel and SagaKernel behind the two exported
// names, and one per remaining kernel (cd.go, admm.go and bcd.go register
// theirs beside the kernel).
const (
	GradOpName     = "opt.grad"
	SagaOpName     = "opt.saga"
	vrOpName       = "opt.vr"
	fullGradOpName = "opt.fullgrad"
	cdOpName       = "opt.cd"
	admmOpName     = "opt.admm"
	bcdOpName      = "opt.bcd"
)

func init() {
	registerKernelOp(GradOpName, true, func(loss Loss, a GradOpArgs) core.Kernel {
		return GradKernel(loss, a.model(), a.Frac)
	})
	registerKernelOp(SagaOpName, true, func(loss Loss, a GradOpArgs) core.Kernel {
		return SagaKernel(loss, a.model(), a.Frac)
	})
	registerKernelOp(vrOpName, true, func(loss Loss, a GradOpArgs) core.Kernel {
		return VRKernel(loss, a.model(), a.aux(), a.Frac)
	})
	registerKernelOp(fullGradOpName, false, func(loss Loss, a GradOpArgs) core.Kernel {
		return FullGradKernel(loss, a.model())
	})
}

// registerKernelOp registers name as the op that runs the kernel build
// produces from a task's GradOpArgs and the loss they name. sampled marks a
// kernel that draws a mini-batch at rate Frac.
func registerKernelOp(name string, sampled bool, build func(Loss, GradOpArgs) core.Kernel) {
	cluster.RegisterOp(name, func(env *cluster.Env, t *cluster.Task) (any, error) {
		a, ok := t.Args.(GradOpArgs)
		if !ok {
			return nil, fmt.Errorf("opt: %s args are %T", name, t.Args)
		}
		// args may have arrived over a wire, so they are validated here, at
		// the op boundary — the kernel itself carries no range check
		if sampled && (a.Frac <= 0 || a.Frac > 1) {
			return nil, fmt.Errorf("opt: %s sample fraction %v outside (0,1]", name, a.Frac)
		}
		loss, err := ObjectiveSpec{Loss: a.Loss, L2: a.L2, L1: a.L1}.Resolve()
		if err != nil {
			return nil, err
		}
		v, n, err := build(loss, a)(env, a.Parts, t.Seed)
		if err != nil {
			return nil, err
		}
		return core.ReducePayload{Val: v, N: n, Empty: n == 0 && v == nil}, nil
	})
}

// checkBlock validates a coordinate block that may have arrived over a wire
// against the model dimension, before a kernel indexes by it.
func checkBlock(block []int32, cols int) error {
	for _, j := range block {
		if j < 0 || int(j) >= cols {
			return fmt.Errorf("opt: block coordinate %d outside [0,%d)", j, cols)
		}
	}
	return nil
}

// wireObjective names loss in ObjectiveSpec terms — what a kernel op's args
// carry in place of the Loss value. Only the family ObjectiveSpec.Resolve
// rebuilds qualifies: least squares or logistic, bare or under a
// Composite.
func wireObjective(loss Loss) (ObjectiveSpec, error) {
	if lin, l2, l1, ok := splitProx(loss); ok {
		switch lin.(type) {
		case LeastSquares, Logistic:
			return ObjectiveSpec{Loss: lin.Name(), L2: l2, L1: l1}, nil
		}
	}
	return ObjectiveSpec{}, fmt.Errorf("opt: loss %q cannot be named to a worker (least-squares or logistic, optionally under a Composite)", loss.Name())
}

// kernelDispatch builds the loopSpec.Dispatch of every AC-based solver: each
// cycle tasks every selected worker with op against the published model.
// fill, when non-nil, runs once per cycle to set the op's optional args (a
// block, a second broadcast, the ADMM scalars).
func kernelDispatch(ac *core.Context, op string, loss Loss, frac float64, fill func(*GradOpArgs)) (func(core.DynBroadcast, *core.Selection) (int, error), error) {
	obj, err := wireObjective(loss)
	if err != nil {
		return nil, err
	}
	return func(wBr core.DynBroadcast, sel *core.Selection) (int, error) {
		a := GradOpArgs{
			BroadcastID: wBr.ID, Version: wBr.Version, Frac: frac,
			Loss: obj.Loss, L2: obj.L2, L1: obj.L1,
		}
		if fill != nil {
			fill(&a)
		}
		return ac.ASYNCreduceOp(sel, op, func(_ int, parts []int) any {
			a.Parts = parts
			return a
		})
	}, nil
}

// modelVec resolves a broadcast on the worker as the dense vector every
// kernel expects there.
func modelVec(env *cluster.Env, br core.DynBroadcast) (la.Vec, error) {
	v, err := br.Value(env)
	if err != nil {
		return nil, err
	}
	return asVec(v)
}

// asVec extracts the dense model vector from a broadcast value.
func asVec(v any) (la.Vec, error) {
	w, ok := v.(la.Vec)
	if !ok {
		return nil, fmt.Errorf("opt: broadcast value is %T, want la.Vec", v)
	}
	return w, nil
}

// gradSweep is the steady-state mini-batch inner loop shared by the
// gradient kernels: sample each row of partition p with probability frac
// and accumulate the per-sample loss gradient at w into g, returning the
// number of sampled rows. It is allocation-free (asserted by
// TestGradSweepAllocFree): row views are zero-copy CSR slices and the loss
// accumulates through the unrolled la kernels.
func gradSweep(loss Loss, p *dataset.Partition, rng *rand.Rand, frac float64, w, g la.Vec) int {
	n := 0
	for local := 0; local < p.NumRows(); local++ {
		if rng.Float64() >= frac {
			continue
		}
		loss.AddGrad(p.X.Row(local), p.Y[local], w, g)
		n++
	}
	return n
}

// GradKernel builds the mini-batch gradient kernel used by SGD and ASGD:
// sample each row of the worker's partitions with probability frac, sum the
// per-sample loss gradients at the broadcast model, and return the
// (unnormalized) gradient sum. The driver divides by the batch size from
// the result attributes. frac is validated by the drivers' defaults() (and
// by the op handler for args that arrive over a wire) so the hot path
// carries no range check.
//
// Sparse-delta path: when the loss is linear (see LinearLoss) and every
// partition of the task sits below sparseDensityThreshold, the kernel
// accumulates only touched coordinates and returns a pooled *la.DeltaVec —
// O(nnz) per task. For an L2-regularized loss the sparse payload carries
// the inner gradient only; the driver applies the shrinkage lazily
// (lazy.go). Dense partitions keep the dense path unchanged.
//
// Reproducibility contract: sampling draws from the worker's reusable RNG
// reseeded with the task seed, which yields exactly the stream of
// rand.New(rand.NewSource(seed)) — the same seed always selects the same
// sample set regardless of what ran on the worker before (see
// TestGradKernelSeedReproducibility). The sparse sweep consumes the RNG
// identically, so both paths sample the same rows.
func GradKernel(loss Loss, wBr core.DynBroadcast, frac float64) core.Kernel {
	// splitProx, not splitLoss: an ℓ1 term never disqualifies the sparse
	// path — both penalties are applied driver-side (lazy L2 shrinkage,
	// prox-at-settle ℓ1), so sparse payloads always carry the inner
	// gradient only
	lin, _, _, linOK := splitProx(loss)
	return func(env *cluster.Env, parts []int, seed int64) (any, int, error) {
		w, err := modelVec(env, wBr)
		if err != nil {
			return nil, 0, err
		}
		rng := env.Scratch().Rand(seed)
		if linOK && sparseTaskViable(env, parts, frac, len(w)) {
			acc := env.Scratch().Delta("opt.grad.acc", len(w))
			acc.Reset()
			n := 0
			for _, pi := range parts {
				p, err := env.Partition(pi)
				if err != nil {
					return nil, 0, err
				}
				n += gradSweepSparse(lin, p, rng, frac, w, acc)
			}
			if n == 0 {
				return nil, 0, nil // empty sample: no result
			}
			return acc.Compact(), n, nil
		}
		g := la.GetVec(len(w))
		n := 0
		for _, pi := range parts {
			p, err := env.Partition(pi)
			if err != nil {
				la.PutVec(g)
				return nil, 0, err
			}
			n += gradSweep(loss, p, rng, frac, w, g)
		}
		if n == 0 {
			la.PutVec(g)
			return nil, 0, nil // empty sample: no result
		}
		return g, n, nil
	}
}

// SagaKernel builds the historical-gradient kernel of Algorithm 4: for each
// sampled row it computes the gradient at the current model AND at the
// model version recorded for that row (w_br.value(index)), then records the
// current version for the row. Rows never touched contribute zero
// historical gradient (the standard zero-initialized SAGA table, which is
// also the only initialization under which Algorithm 3's
// `averageHistory = 0` start is consistent). Sampling follows GradKernel's
// reproducibility contract (per-worker RNG reseeded with the task seed).
// frac is validated by the drivers' defaults(), not here.
//
// Sparse-delta path: for an unregularized linear loss over partitions below
// sparseDensityThreshold the kernel returns a SagaDelta of pooled sparse
// sums (the current and historical gradients of a sampled row share its
// support); the driver applies the update — including the dense avgHist
// drift — lazily in O(nnz) (see saga.go).
func SagaKernel(loss Loss, wBr core.DynBroadcast, frac float64) core.Kernel {
	lin, lambda, linOK := splitLoss(loss)
	sparseOK := linOK && lambda == 0 // lazy SAGA shrinkage is not supported
	return func(env *cluster.Env, parts []int, seed int64) (any, int, error) {
		w, err := modelVec(env, wBr)
		if err != nil {
			return nil, 0, err
		}
		n := 0
		rng := env.Scratch().Rand(seed)
		hist := wBr.History(env) // hoisted: per-sample lookups are alloc-free
		if sparseOK && sparseTaskViable(env, parts, frac, len(w)) {
			accCur := env.Scratch().Delta("opt.saga.cur", len(w))
			accHist := env.Scratch().Delta("opt.saga.hist", len(w))
			accCur.Reset()
			accHist.Reset()
			for _, pi := range parts {
				p, err := env.Partition(pi)
				if err != nil {
					return nil, 0, err
				}
				for local := 0; local < p.NumRows(); local++ {
					if rng.Float64() >= frac {
						continue
					}
					idx := p.GlobalRow(local)
					rowIdx, rowVal := p.X.RowNZ(local)
					y := p.Y[local]
					accCur.Accum(lin.GradCoeff(la.SparseDot(rowIdx, rowVal, w), y), rowIdx, rowVal)
					hv, touched, err := hist.TryValueAt(env, idx)
					if err != nil {
						return nil, 0, err
					}
					if touched {
						wHist, err := asVec(hv)
						if err != nil {
							return nil, 0, err
						}
						accHist.Accum(lin.GradCoeff(la.SparseDot(rowIdx, rowVal, wHist), y), rowIdx, rowVal)
					}
					hist.Record(idx)
					n++
				}
			}
			if n == 0 {
				return nil, 0, nil
			}
			return SagaDelta{Sum: accCur.Compact(), HistSum: accHist.Compact()}, n, nil
		}
		gCur := la.GetVec(len(w))
		gHist := la.GetVec(len(w))
		fail := func(err error) (any, int, error) {
			la.PutVec(gCur)
			la.PutVec(gHist)
			return nil, 0, err
		}
		for _, pi := range parts {
			p, err := env.Partition(pi)
			if err != nil {
				return fail(err)
			}
			for local := 0; local < p.NumRows(); local++ {
				if rng.Float64() >= frac {
					continue
				}
				idx := p.GlobalRow(local)
				x, y := p.X.Row(local), p.Y[local]
				loss.AddGrad(x, y, w, gCur)
				hv, touched, err := hist.TryValueAt(env, idx)
				if err != nil {
					return fail(err)
				}
				if touched {
					wHist, err := asVec(hv)
					if err != nil {
						return fail(err)
					}
					loss.AddGrad(x, y, wHist, gHist)
				}
				hist.Record(idx)
				n++
			}
		}
		if n == 0 {
			return fail(nil)
		}
		return SagaPartial{Sum: gCur, HistSum: gHist}, n, nil
	}
}

// VRKernel builds the inner-loop kernel of the epoch-based variance-reduced
// scheme (Listing 3 / SVRG): per sampled row it returns ∇f_i(w) − ∇f_i(w̃),
// where w̃ is the epoch anchor.
//
// Sparse-delta path: for an unregularized linear loss the per-sample
// difference is (c_w − c_w̃)·x — one scatter over the row's support — so
// sparse partitions ship a pooled *la.DeltaVec and the driver defers the
// dense μ term lazily (see svrg.go).
func VRKernel(loss Loss, wBr, anchorBr core.DynBroadcast, frac float64) core.Kernel {
	lin, lambda, linOK := splitLoss(loss)
	sparseOK := linOK && lambda == 0
	return func(env *cluster.Env, parts []int, seed int64) (any, int, error) {
		w, err := modelVec(env, wBr)
		if err != nil {
			return nil, 0, err
		}
		anchor, err := modelVec(env, anchorBr)
		if err != nil {
			return nil, 0, err
		}
		rng := env.Scratch().Rand(seed)
		if sparseOK && sparseTaskViable(env, parts, frac, len(w)) {
			acc := env.Scratch().Delta("opt.vr.acc", len(w))
			acc.Reset()
			n := 0
			for _, pi := range parts {
				p, err := env.Partition(pi)
				if err != nil {
					return nil, 0, err
				}
				for local := 0; local < p.NumRows(); local++ {
					if rng.Float64() >= frac {
						continue
					}
					idx, val := p.X.RowNZ(local)
					y := p.Y[local]
					c := lin.GradCoeff(la.SparseDot(idx, val, w), y) -
						lin.GradCoeff(la.SparseDot(idx, val, anchor), y)
					acc.Accum(c, idx, val)
					n++
				}
			}
			if n == 0 {
				return nil, 0, nil
			}
			return acc.Compact(), n, nil
		}
		diff := la.GetVec(len(w))
		tmp := env.Scratch().Vec("opt.vr.tmp", len(w))
		n := 0
		for _, pi := range parts {
			p, err := env.Partition(pi)
			if err != nil {
				la.PutVec(diff)
				return nil, 0, err
			}
			for local := 0; local < p.NumRows(); local++ {
				if rng.Float64() >= frac {
					continue
				}
				x, y := p.X.Row(local), p.Y[local]
				loss.AddGrad(x, y, w, diff)
				tmp.Zero()
				loss.AddGrad(x, y, anchor, tmp)
				la.Axpy(-1, tmp, diff)
				n++
			}
		}
		if n == 0 {
			la.PutVec(diff)
			return nil, 0, nil
		}
		return diff, n, nil
	}
}

// FullGradKernel computes the exact gradient sum over the worker's
// partitions (frac = 1, no sampling) — the synchronous full pass at the top
// of each variance-reduction epoch.
func FullGradKernel(loss Loss, wBr core.DynBroadcast) core.Kernel {
	return func(env *cluster.Env, parts []int, seed int64) (any, int, error) {
		w, err := modelVec(env, wBr)
		if err != nil {
			return nil, 0, err
		}
		g := la.GetVec(len(w))
		n := 0
		for _, pi := range parts {
			p, err := env.Partition(pi)
			if err != nil {
				la.PutVec(g)
				return nil, 0, err
			}
			for local := 0; local < p.NumRows(); local++ {
				loss.AddGrad(p.X.Row(local), p.Y[local], w, g)
				n++
			}
		}
		if n == 0 {
			la.PutVec(g)
			return nil, 0, nil
		}
		return g, n, nil
	}
}
