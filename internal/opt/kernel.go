package opt

import (
	"fmt"
	"math/rand"
	"sync"

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

// SagaPartial was the dense SAGA payload of two sums; SagaKernel now ships
// their difference as a la.Vec. Nothing produces it: its last reference is
// benchmark/probe.go's payload recycler, and it goes with that case under
// ROADMAP 8(c).
type SagaPartial struct {
	Sum     la.Vec
	HistSum la.Vec
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
	AuxVersion int64   // cd.delta stamp
	Block      []int32 // opt.cd: the coordinate block of the dispatch
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
// names, and one per remaining kernel (cd.go and admm.go register theirs
// beside the kernel).
const (
	GradOpName     = "opt.grad"
	SagaOpName     = "opt.saga"
	vrOpName       = "opt.vr"
	fullGradOpName = "opt.fullgrad"
	cdOpName       = "opt.cd"
	admmOpName     = "opt.admm"
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

// SagaKernel builds the historical-gradient kernel of SAGA for a linear
// loss. Row i's gradient at a model v is c_i·x_i with the scalar
// c_i = GradCoeff(x_i·w_v, y_i), so the worker stores that scalar per row
// (sagaCoefs) in place of the version the row last saw, and the history
// enters only as the per-row difference (c_i − c_i^old)·x_i (arXiv:1407.0202
// §4): per sampled row it takes one dot, scatters c − c_old (c if the row
// was never sampled) once, and stores c. The payload is the one sum
// Σ_{i∈S} ∇f_i(w_current) − ∇f_i(w_hist(i)) — the only form the driver
// reads — in the types GradKernel ships. The per-row arithmetic is that of
// re-evaluating the gradient at the recorded version (the paper-literal arm
// in baseline.go ships the same bits), but a task reads only the version it
// names. Rows never sampled contribute zero historical gradient, the only
// start consistent with Algorithm 3's `averageHistory = 0`. The sum is of
// the loss alone; the driver applies a ridge term exactly
// (sagaState.apply). Sampling follows GradKernel's reproducibility
// contract.
//
// Sparse-delta path: without a ridge term, over partitions below
// sparseDensityThreshold, the difference ships as a pooled *la.DeltaVec and
// the driver applies the update, avgHist drift included, lazily in O(nnz)
// (saga.go).
func SagaKernel(loss Loss, wBr core.DynBroadcast, frac float64) core.Kernel {
	lin, l2, _, linOK := splitProx(loss)
	return func(env *cluster.Env, parts []int, seed int64) (any, int, error) {
		if !linOK {
			return nil, 0, fmt.Errorf("opt: SAGA kernel needs a linear loss, not %q", loss.Name())
		}
		w, err := modelVec(env, wBr)
		if err != nil {
			return nil, 0, err
		}
		rng := env.Scratch().Rand(seed)
		coefs := sagaCoefTable(env, wBr.ID)
		// a sweep reports 0 rows on error as on an empty sample
		if l2 == 0 && sparseTaskViable(env, parts, frac, len(w)) {
			acc := env.Scratch().Delta("opt.saga.acc", len(w))
			acc.Reset()
			n, err := sagaSweep(env, coefs, lin, parts, rng, frac, w, acc)
			if n == 0 {
				return nil, 0, err
			}
			return acc.Compact(), n, nil
		}
		diff := la.GetVec(len(w))
		n, err := sagaSweep(env, coefs, lin, parts, rng, frac, w, denseAccum(diff))
		if n == 0 {
			la.PutVec(diff)
			return nil, 0, err
		}
		return diff, n, nil
	}
}

// rowAccum is sagaSweep's scatter: *la.DeltaAccum (sparse) or denseAccum.
type rowAccum interface {
	Accum(c float64, idx []int32, val []float64)
}

type denseAccum la.Vec

func (g denseAccum) Accum(c float64, idx []int32, val []float64) {
	la.GradAccum(c, idx, val, la.Vec(g))
}

// sagaSweep is SagaKernel's row loop over the task's partitions, scattering
// each sampled row's gradient difference into acc. It returns the number of
// sampled rows, 0 with the error when a partition is missing.
func sagaSweep[A rowAccum](env *cluster.Env, coefs sagaCoefs, lin LinearLoss, parts []int, rng *rand.Rand, frac float64, w la.Vec, acc A) (int, error) {
	n := 0
	for _, pi := range parts {
		p, err := env.Partition(pi)
		if err != nil {
			return 0, err
		}
		rows := coefs.rows(p)
		for local := 0; local < p.NumRows(); local++ {
			if rng.Float64() >= frac {
				continue
			}
			idx, val := p.X.RowNZ(local)
			c := lin.GradCoeff(la.SparseDot(idx, val, w), p.Y[local])
			d := c
			if rows.touched[local] {
				d -= rows.coef[local]
			}
			acc.Accum(d, idx, val)
			rows.coef[local], rows.touched[local] = c, true
			n++
		}
	}
	return n, nil
}

// sagaCoefs is a worker's SAGA history for one broadcast id, by partition
// index: each row's last gradient coefficient and whether it was sampled.
// It lives in the worker's store, which ResetRun clears (what
// Checkpoint.HistoryAttached reports on); a worker runs one task at a time.
type sagaCoefs map[int]*sagaRows

type sagaRows struct {
	coef    []float64
	touched []bool
}

// rows returns p's table, sized when a task first samples the partition.
func (t sagaCoefs) rows(p *dataset.Partition) *sagaRows {
	r := t[p.Index]
	if r == nil || len(r.coef) != p.NumRows() {
		r = &sagaRows{coef: make([]float64, p.NumRows()), touched: make([]bool, p.NumRows())}
		t[p.Index] = r
	}
	return r
}

// sagaCoefKeys interns the per-id store keys, so resolving a table on the
// per-task path does not allocate.
var sagaCoefKeys sync.Map // id → "opt.saga.coef." + id

func sagaCoefTable(env *cluster.Env, id string) sagaCoefs {
	k, ok := sagaCoefKeys.Load(id)
	if !ok {
		k, _ = sagaCoefKeys.LoadOrStore(id, "opt.saga.coef."+id)
	}
	return env.StoreGetOrCreate(k.(string), func() any { return sagaCoefs{} }).(sagaCoefs)
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
