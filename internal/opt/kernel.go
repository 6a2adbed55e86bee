package opt

import (
	"fmt"
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
// sampling walks a cluster.RowSampler value seeded with the task seed. The
// only unavoidable per-task allocation is boxing the result payload into
// `any`.
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
	AuxID      string  // opt.cd: the cd.delta broadcast, at AuxVersion
	AuxVersion int64   // opt.vr: the model version its coefficient table was filled at
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
// names, svrg's two uses of SAGA's coefficient table (the full pass fills
// it, an inner step reads it), and one per remaining kernel (cd.go and
// admm.go register theirs beside the kernel). A full gradient pass is
// GradOpName at Frac 1.
const (
	GradOpName   = "opt.grad"
	SagaOpName   = "opt.saga"
	vrOpName     = "opt.vr"
	vrFillOpName = "opt.vr.fill"
	cdOpName     = "opt.cd"
	admmOpName   = "opt.admm"
)

func init() {
	registerKernelOp(GradOpName, true, func(loss Loss, a GradOpArgs) core.Kernel {
		return GradKernel(loss, a.model(), a.Frac)
	})
	registerKernelOp(SagaOpName, true, func(loss Loss, a GradOpArgs) core.Kernel {
		return SagaKernel(loss, a.model(), a.Frac)
	})
	registerKernelOp(vrOpName, true, func(loss Loss, a GradOpArgs) core.Kernel {
		return tableKernel(loss, a.model(), a.Frac, tableRead, a.AuxVersion)
	})
	registerKernelOp(vrFillOpName, false, func(loss Loss, a GradOpArgs) core.Kernel {
		return tableKernel(loss, a.model(), 1, tableFill, a.Version)
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
// carry in place of the Loss value — and checks it there, the one check of
// a hand-built objective: it must be what an ObjectiveSpec resolves to
// (least squares or logistic, under at most one Composite whose penalties
// are finite and non-negative), or a worker could not rebuild it.
func wireObjective(loss Loss) (ObjectiveSpec, error) {
	l2, l1 := loss.Penalties()
	o := ObjectiveSpec{Loss: bare(loss).Name(), L2: l2, L1: l1}
	return o, o.Validate()
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

// GradKernel builds the mini-batch gradient kernel used by SGD and ASGD,
// and at frac 1 the full pass of gcg: sample each row of the
// worker's partitions with probability frac and return the (unnormalized)
// sum of the sampled rows' loss gradients at the broadcast model. The
// driver divides by the batch size from the result attributes and adds the
// penalties itself (see the package comment). frac is validated by the
// drivers' defaults() (and by the op handler for args that arrive over a
// wire) so the hot path carries no range check.
//
// The sum ships as a pooled *la.DeltaVec when every partition of the task
// sits below sparseDensityThreshold — O(nnz) per task — and as a pooled
// la.Vec otherwise (shipSum).
//
// Reproducibility contract: sampling walks a cluster.RowSampler seeded with
// the task seed, so the same seed, frac and partitions select the same rows
// on any worker, regardless of what ran there before (see
// TestGradKernelSeedReproducibility).
func GradKernel(loss Loss, wBr core.DynBroadcast, frac float64) core.Kernel {
	lin := bare(loss)
	return func(env *cluster.Env, parts []int, seed int64) (any, int, error) {
		w, err := modelVec(env, wBr)
		if err != nil {
			return nil, 0, err
		}
		rows := cluster.NewRowSampler(seed, frac)
		return shipSum(env, len(w), sparseTaskViable(env, parts, frac, len(w)),
			func(acc *la.DeltaAccum) (int, error) { return gradSweep(env, lin, parts, &rows, w, acc) },
			func(acc denseAccum) (int, error) { return gradSweep(env, lin, parts, &rows, w, acc) })
	}
}

// shipSum runs a kernel's row loop into a pooled accumulator, a
// *la.DeltaAccum when sparse and a la.Vec otherwise (the loop writes the
// same bits into either), and returns it as the task's payload with the
// number of sampled rows. A loop reports 0 rows on error as on an empty
// sample.
func shipSum(env *cluster.Env, dim int, sparse bool, sweepSparse func(*la.DeltaAccum) (int, error), sweepDense func(denseAccum) (int, error)) (any, int, error) {
	if sparse {
		acc := env.Scratch().Delta("opt.acc", dim)
		acc.Reset()
		n, err := sweepSparse(acc)
		if n == 0 {
			return nil, 0, err
		}
		return acc.Compact(), n, nil
	}
	g := la.GetVec(dim)
	n, err := sweepDense(denseAccum(g))
	if n == 0 {
		la.PutVec(g)
		return nil, 0, err
	}
	return g, n, nil
}

// gradSweep is GradKernel's row loop over the task's partitions: per
// sampled row one dot, one GradCoeff and one scatter of c·x into acc. It
// returns the number of sampled rows, 0 with the error when a partition is
// missing. It is allocation-free (TestGradSweepAllocFree): row views are
// zero-copy CSR slices.
func gradSweep[A rowAccum](env *cluster.Env, lin Loss, parts []int, s *cluster.RowSampler, w la.Vec, acc A) (int, error) {
	n := 0
	for _, pi := range parts {
		p, err := env.Partition(pi)
		if err != nil {
			return 0, err
		}
		nr := p.NumRows()
		for local := s.Next(0, nr); local < nr; local = s.Next(local+1, nr) {
			idx, val := p.X.RowNZ(local)
			acc.Accum(lin.GradCoeff(la.SparseDot(idx, val, w), p.Y[local]), idx, val)
			n++
		}
	}
	return n, nil
}

// SagaKernel builds the historical-gradient kernel of SAGA. Row i's
// gradient at a model v is c_i·x_i with the scalar c_i = GradCoeff(x_i·w_v,
// y_i), so the worker stores that scalar per row (sagaCoefs) in place of the
// version the row last saw, and the history enters only as the per-row
// difference (c_i − c_i^old)·x_i (arXiv:1407.0202 §4): per sampled row it
// takes one dot, scatters c − c_old (c if the row was never sampled) once,
// and stores c. The payload is the one sum
// Σ_{i∈S} ∇f_i(w_current) − ∇f_i(w_hist(i)) — the only form the driver
// reads — in the types GradKernel ships. The per-row arithmetic is that of
// re-evaluating the gradient at the recorded version (the paper-literal arm
// in baseline.go ships the same bits), but a task reads only the version it
// names. Rows never sampled contribute zero historical gradient, the only
// start consistent with Algorithm 3's `averageHistory = 0`. Like every
// kernel it ships the loss alone; the driver applies the ridge term at the
// model it updates (sagaState.apply). Sampling follows GradKernel's
// reproducibility contract.
//
// Sparse-delta path: over partitions below sparseDensityThreshold the
// difference ships as a pooled *la.DeltaVec and the driver applies the
// update, avgHist drift included, lazily in O(nnz) (saga.go). The lazy
// drift has no deferred shrinkage, so a ridge objective ships dense.
func SagaKernel(loss Loss, wBr core.DynBroadcast, frac float64) core.Kernel {
	return tableKernel(loss, wBr, frac, sagaStep, 0)
}

// sweepMode is what a sagaSweep does with the coefficient table. svrg is
// SAGA whose table is refreshed all at once (arXiv:1407.0202 §2): its
// epoch's full pass fills the table at the anchor w̃, and its inner steps
// read it without storing, shipping Σ (c_i(w) − c_i(w̃))·x_i.
type sweepMode uint8

const (
	sagaStep  sweepMode = iota // ship c − c_old (c for a row never sampled), store c
	tableFill                  // ship c, store c, stamp the partition with the model version
	tableRead                  // ship c − c_old over partitions stamped with the task's anchor version
)

// tableKernel runs sagaSweep in mode over the coefficient table of wBr's id;
// at is the version a tableFill stamps and a tableRead requires. A
// tableFill's sum is the full gradient the driver folds into μ, so like
// GradKernel's it ships sparse under a ridge term too.
func tableKernel(loss Loss, wBr core.DynBroadcast, frac float64, mode sweepMode, at int64) core.Kernel {
	l2, _ := loss.Penalties()
	lin := bare(loss)
	return func(env *cluster.Env, parts []int, seed int64) (any, int, error) {
		w, err := modelVec(env, wBr)
		if err != nil {
			return nil, 0, err
		}
		rows := cluster.NewRowSampler(seed, frac)
		coefs := sagaCoefTable(env, wBr.ID)
		return shipSum(env, len(w), (l2 == 0 || mode == tableFill) && sparseTaskViable(env, parts, frac, len(w)),
			func(acc *la.DeltaAccum) (int, error) {
				return sagaSweep(env, coefs, mode, at, lin, parts, &rows, w, acc)
			},
			func(acc denseAccum) (int, error) { return sagaSweep(env, coefs, mode, at, lin, parts, &rows, w, acc) })
	}
}

// rowAccum is the row loops' scatter: *la.DeltaAccum (sparse) or
// denseAccum. The loops are generic over it, so each path's scatter is a
// direct call.
type rowAccum interface {
	Accum(c float64, idx []int32, val []float64)
}

type denseAccum la.Vec

func (g denseAccum) Accum(c float64, idx []int32, val []float64) {
	la.GradAccum(c, idx, val, la.Vec(g))
}

// sagaSweep is the row loop of the coefficient-table kernels over the
// task's partitions, scattering each sampled row's coefficient, or its
// difference from the stored one, into acc as mode says. It returns the
// number of sampled rows, 0 with the error when a partition is missing or,
// for a tableRead, not filled at at.
func sagaSweep[A rowAccum](env *cluster.Env, coefs sagaCoefs, mode sweepMode, at int64, lin Loss, parts []int, s *cluster.RowSampler, w la.Vec, acc A) (int, error) {
	n := 0
	for _, pi := range parts {
		p, err := env.Partition(pi)
		if err != nil {
			return 0, err
		}
		rows, err := coefs.rows(p, mode, at)
		if err != nil {
			return 0, err
		}
		nr := p.NumRows()
		for local := s.Next(0, nr); local < nr; local = s.Next(local+1, nr) {
			idx, val := p.X.RowNZ(local)
			c := lin.GradCoeff(la.SparseDot(idx, val, w), p.Y[local])
			d := c
			if mode != tableFill && rows.touched[local] {
				d -= rows.coef[local]
			}
			acc.Accum(d, idx, val)
			if mode != tableRead {
				rows.coef[local], rows.touched[local] = c, true
			}
			n++
		}
	}
	return n, nil
}

// sagaCoefs is a worker's coefficient table for one broadcast id, by
// partition index: each row's last gradient coefficient and whether it was
// sampled. It lives in the worker's store, which ResetRun clears (what
// Checkpoint.HistoryAttached reports on); a worker runs one task at a time.
type sagaCoefs map[int]*sagaRows

type sagaRows struct {
	coef    []float64
	touched []bool
	at      int64 // the model version a tableFill last filled every row at
}

// rows returns p's table for a sweep in mode. A sagaStep or tableFill sizes
// it when it first meets the partition, and a tableFill stamps it with at. A
// tableRead fails unless a tableFill at at filled it: the rows would have no
// anchor coefficient, and shipping c(w)·x for them would bias the step.
func (t sagaCoefs) rows(p *dataset.Partition, mode sweepMode, at int64) (*sagaRows, error) {
	r := t[p.Index]
	if mode == tableRead {
		if r == nil || r.at != at || len(r.coef) != p.NumRows() {
			return nil, &anchorMissingError{part: p.Index, version: at}
		}
		return r, nil
	}
	if r == nil || len(r.coef) != p.NumRows() {
		r = &sagaRows{coef: make([]float64, p.NumRows()), touched: make([]bool, p.NumRows())}
		t[p.Index] = r
	}
	if mode == tableFill {
		r.at = at
	}
	return r, nil
}

// anchorMissingError fails an svrg inner task over a partition whose
// coefficients were not filled at the anchor version the task names.
type anchorMissingError struct {
	part    int
	version int64
}

func (e *anchorMissingError) Error() string {
	return fmt.Sprintf("opt: partition %d has no anchor coefficient at model version %d", e.part, e.version)
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
