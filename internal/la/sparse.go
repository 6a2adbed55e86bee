package la

import (
	"fmt"
	"sort"
)

// SparseVec is a sparse vector in coordinate form with strictly increasing
// indices. It is the row view handed to gradient kernels; dense rows are
// represented with a full index set so the kernels need a single code path.
type SparseVec struct {
	Idx []int32   // strictly increasing column indices
	Val []float64 // values, len(Val) == len(Idx)
	N   int       // logical dimension
}

// NewSparseVec builds a sparse vector from parallel index/value slices.
// The indices must be strictly increasing and within [0, n).
func NewSparseVec(n int, idx []int32, val []float64) (SparseVec, error) {
	if len(idx) != len(val) {
		return SparseVec{}, fmt.Errorf("la: sparse vec idx/val length mismatch %d != %d", len(idx), len(val))
	}
	prev := int32(-1)
	for _, j := range idx {
		if j <= prev || int(j) >= n {
			return SparseVec{}, fmt.Errorf("la: sparse vec index %d out of order or out of range [0,%d)", j, n)
		}
		prev = j
	}
	return SparseVec{Idx: idx, Val: val, N: n}, nil
}

// DotDense returns the inner product of the sparse vector with a dense one.
// It delegates to the unrolled SparseDot kernel.
func (s SparseVec) DotDense(d Vec) float64 {
	if s.N != len(d) {
		panic(fmt.Sprintf("la: sparse DotDense dim mismatch %d != %d", s.N, len(d)))
	}
	return SparseDot(s.Idx, s.Val, d)
}

// AxpyDense computes y += alpha * s for dense y. It delegates to the
// unrolled GradAccum kernel.
func (s SparseVec) AxpyDense(alpha float64, y Vec) {
	if s.N != len(y) {
		panic(fmt.Sprintf("la: sparse AxpyDense dim mismatch %d != %d", s.N, len(y)))
	}
	GradAccum(alpha, s.Idx, s.Val, y)
}

// SparseFromMap builds a sparse vector from a map of index to value,
// dropping explicit zeros and sorting indices.
func SparseFromMap(n int, m map[int32]float64) SparseVec {
	idx := make([]int32, 0, len(m))
	for j, v := range m {
		if v != 0 {
			idx = append(idx, j)
		}
	}
	sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
	val := make([]float64, len(idx))
	for k, j := range idx {
		val[k] = m[j]
	}
	return SparseVec{Idx: idx, Val: val, N: n}
}
