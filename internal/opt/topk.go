package opt

import (
	"sync"

	"repro/internal/la"
)

// topkScratch pools the (index, value) working pair TopK selects over, so a
// steady-state caller pays only the two result-slice allocations per call.
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
