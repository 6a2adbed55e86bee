package opt

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/la"
)

// The unified driver runtime splits every solver into two halves: the
// solver-specific Updater below (the arithmetic of one model update) and the
// algorithm-independent loop in runtime.go (broadcast staging, barrier
// waits, dispatch, result collection, recorder cadence, lazy-settle
// scheduling, checkpoint emission, preemption, drain, trace assembly). No
// solver owns its own collect/apply loop; drain/trace/progress/settle
// interplay lives in exactly one place. The worker half has one form too:
// a solver's per-task work is a registered op plus a GradOpArgs value
// (kernelDispatch in kernel.go), never a closure, so every solver runs on
// every transport.

// Updater owns a run's solver-specific driver state. The runtime guarantees
// all methods are called from the driver goroutine.
type Updater interface {
	// Model returns the backing model vector. It is externally consistent
	// only after Settle; the runtime settles before every external read
	// (snapshot, broadcast, checkpoint, finish).
	Model() la.Vec
	// Settle flushes lazily deferred dense update terms (L2 shrinkage,
	// SAGA/SVRG drifts). Must be idempotent.
	Settle()
	// Apply performs one model update from a collected payload (streaming
	// solvers) or folds one partial into the round accumulator (round
	// solvers; alpha is then delivered at FlushRound instead).
	Apply(payload any, attrs *core.Attrs, alpha float64) error
	// Export adds solver-specific state to a checkpoint (the runtime has
	// already settled and filled W/Updates/Algorithm).
	Export(cp *Checkpoint)
	// Import restores solver-specific state from a checkpoint (the model
	// itself included).
	Import(cp *Checkpoint) error
}

// RoundUpdater is the bulk-synchronous extension: the runtime folds every
// collected partial of a round via Apply, then asks FlushRound to turn the
// accumulated round into one model update. applied=false reports an empty
// round (no clock advance, no snapshot).
type RoundUpdater interface {
	Updater
	FlushRound(alpha float64) (applied bool, err error)
}

// importModel copies the checkpointed model into w with a dimension check —
// the shared first step of every Updater.Import.
func importModel(w la.Vec, cp *Checkpoint) error {
	if len(cp.W) != len(w) {
		return fmt.Errorf("opt: checkpoint model dim %d != %d", len(cp.W), len(w))
	}
	w.CopyFrom(cp.W)
	return nil
}

// vecUpdater is the minimal Updater over a bare model vector — no lazy
// terms, no extra state: what the AC-free synchronous driver (mllib-sgd)
// runs on.
type vecUpdater struct{ w la.Vec }

func (u *vecUpdater) Model() la.Vec { return u.w }
func (u *vecUpdater) Settle()       {}
func (u *vecUpdater) Apply(payload any, attrs *core.Attrs, alpha float64) error {
	return fmt.Errorf("opt: unexpected payload %T", payload)
}
func (u *vecUpdater) Export(*Checkpoint)          {}
func (u *vecUpdater) Import(cp *Checkpoint) error { return importModel(u.w, cp) }

// roundAccum folds one BSP round's task payloads without densifying sparse
// partials: dense la.Vec payloads sum into a persistent dense accumulator,
// sparse *la.DeltaVec payloads merge in O(nnz) via la.DeltaVec.MergeFrom.
// Both buffers persist across rounds (capacity grows to the running maximum
// and then stabilises), so absorbing a partial allocates nothing in steady
// state. Payload storage is recycled to its pool on absorption.
type roundAccum struct {
	dim       int
	dense     la.Vec
	sparse    *la.DeltaVec
	hasDense  bool
	hasSparse bool
}

func newRoundAccum(dim int) *roundAccum { return &roundAccum{dim: dim} }

// AddDense folds a dense partial and recycles it.
func (r *roundAccum) AddDense(g la.Vec) {
	if !r.hasDense {
		if r.dense == nil {
			r.dense = la.NewVec(r.dim)
		} else {
			r.dense.Zero()
		}
		r.hasDense = true
	}
	la.Axpy(1, g, r.dense)
	la.PutVec(g)
}

// AddSparse merges a sparse partial (sorted-union MergeFrom) and recycles it.
func (r *roundAccum) AddSparse(g *la.DeltaVec) {
	if !r.hasSparse {
		if r.sparse == nil {
			r.sparse = &la.DeltaVec{N: r.dim}
		}
		r.sparse.Idx = r.sparse.Idx[:0]
		r.sparse.Val = r.sparse.Val[:0]
		r.hasSparse = true
	}
	r.sparse.MergeFrom(g)
	la.PutDelta(g)
}

// Sparse returns the merged sparse part, nil when the round had none.
func (r *roundAccum) Sparse() *la.DeltaVec {
	if !r.hasSparse {
		return nil
	}
	return r.sparse
}

// Dense returns the dense part, nil when the round had none.
func (r *roundAccum) Dense() la.Vec {
	if !r.hasDense {
		return nil
	}
	return r.dense
}

// Densify folds the sparse part into the dense accumulator and returns the
// complete dense round sum (the ridge / mixed-payload path).
func (r *roundAccum) Densify() la.Vec {
	if !r.hasDense {
		if r.dense == nil {
			r.dense = la.NewVec(r.dim)
		} else {
			r.dense.Zero()
		}
		r.hasDense = true
	}
	if r.hasSparse {
		r.sparse.AxpyDense(1, r.dense)
		r.hasSparse = false
	}
	return r.dense
}

// Reset clears the accumulator for the next round, keeping capacity.
func (r *roundAccum) Reset() { r.hasDense, r.hasSparse = false, false }
