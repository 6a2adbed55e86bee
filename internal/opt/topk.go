package opt

import (
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/la"
)

// Top-k gradient sparsification: workers ship only the k largest-magnitude
// gradient coordinates per partial. A common communication-efficiency
// technique in asynchronous parameter-server systems; here it is an
// extension showing the engine is payload-agnostic — the driver just
// applies sparse updates.

// topkScratch pools the (index, value) working pair TopK selects over, so a
// steady-state kernel pays only the two result-slice allocations per call.
var topkScratch = sync.Pool{New: func() any { return new(tkScratch) }}

type tkScratch struct {
	idx []int32
	val []float64
}

// TopK returns the sparse vector keeping the k largest-|value| entries of g.
// Selection is quickselect over a pooled scratch pair — O(d + k·log k)
// rather than the O(d·log d) full sort it replaces — and the returned
// SparseVec owns freshly copied slices.
func TopK(g la.Vec, k int) la.SparseVec {
	if k <= 0 {
		return la.SparseVec{N: len(g)}
	}
	if k >= len(g) {
		return la.SparseFromDense(g)
	}
	sc := topkScratch.Get().(*tkScratch)
	idx, val := sc.idx[:0], sc.val[:0]
	for j, v := range g {
		if v != 0 {
			idx = append(idx, int32(j))
			val = append(val, v)
		}
	}
	cut := la.TopAbs(idx, val, k)
	idx, val = idx[:cut], val[:cut]
	la.SortPairsByIdx(idx, val)
	sv := la.SparseVec{
		Idx: append([]int32(nil), idx...),
		Val: append([]float64(nil), val...),
		N:   len(g),
	}
	sc.idx, sc.val = idx[:0], val[:0]
	topkScratch.Put(sc)
	return sv
}

// SparseGradKernel is GradKernel with top-k sparsification of the locally
// reduced gradient before submission. It always runs the dense sweep —
// top-k selection needs the complete local gradient (including any L2
// term a regularized loss folds in per sample), so the adaptive
// sparse-delta path of GradKernel does not apply here; the payload that
// crosses the wire is sparse regardless.
func SparseGradKernel(loss Loss, wBr core.DynBroadcast, frac float64, k int) core.Kernel {
	return func(env *cluster.Env, parts []int, seed int64) (any, int, error) {
		wv, err := wBr.Value(env)
		if err != nil {
			return nil, 0, err
		}
		w, err := asVec(wv)
		if err != nil {
			return nil, 0, err
		}
		g := la.GetVec(len(w))
		rng := env.Scratch().Rand(seed)
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
			return nil, 0, nil
		}
		sv := TopK(g, k)
		la.PutVec(g) // TopK copies; the accumulator goes back to the pool
		return sv, n, nil
	}
}

// topkUpdater applies top-k sparsified partials and accounts the shipped
// coordinates. The count is driver state like any other: it rides the
// checkpoint so a preempted-then-resumed run reports the full run's
// communication cost, not just the post-resume segment.
type topkUpdater struct {
	vecUpdater
	coords int64
}

func (u *topkUpdater) Export(cp *Checkpoint) { cp.SetInt("coords", u.coords) }

func (u *topkUpdater) Import(cp *Checkpoint) error {
	if err := u.vecUpdater.Import(cp); err != nil {
		return err
	}
	u.coords = cp.Int("coords")
	return nil
}

func (u *topkUpdater) Apply(payload any, attrs *core.Attrs, alpha float64) error {
	g, ok := payload.(la.SparseVec)
	if !ok {
		return fmt.Errorf("unexpected payload %T", payload)
	}
	u.coords += int64(g.NNZ())
	g.AxpyDense(-alpha/float64(attrs.MiniBatch), u.w)
	return nil
}

// SparseASGD is ASGD with top-k sparsified partials: identical driver loop,
// but each collected payload is a sparse vector carrying only k = ⌈topKFrac
// × cols⌉ coordinates. Returns the run result plus the number of gradient
// coordinates actually shipped (for communication accounting).
func SparseASGD(ac *core.Context, d *dataset.Dataset, p Params, topKFrac float64, fstar float64) (*Result, int64, error) {
	if err := p.defaults(); err != nil {
		return nil, 0, err
	}
	if err := rejectL1(p.Loss, "sparse-asgd"); err != nil {
		return nil, 0, err
	}
	if topKFrac <= 0 || topKFrac > 1 {
		return nil, 0, fmt.Errorf("opt: top-k fraction %v outside (0,1]", topKFrac)
	}
	cols := d.NumCols()
	k := int(topKFrac * float64(cols))
	if k < 1 {
		k = 1
	}
	w, err := p.initModel(cols)
	if err != nil {
		return nil, 0, err
	}
	u := &topkUpdater{vecUpdater: vecUpdater{w: w}}
	res, err := runLoop(ac, d, u, &loopSpec{
		Algo: "ASGD-topk", Name: "sparse-asgd", Key: "sgd.w",
		P: &p, Loss: p.Loss, FStar: fstar,
		Target: int64(p.Updates), Publish: pubPlain, Prune: true,
		Dispatch: func(wBr core.DynBroadcast, sel *core.Selection) (int, error) {
			return ac.ASYNCreduce(sel, SparseGradKernel(p.Loss, wBr, p.SampleFrac, k))
		},
	})
	return res, u.coords, err
}
