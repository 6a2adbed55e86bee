package la

import "fmt"

// This file holds the fused, 4-way-unrolled kernels behind the package's
// zero-allocation invariant: every function here runs in O(1) extra space,
// never allocates, and makes a single pass over its operands. The gradient
// inner loops in internal/opt are built exclusively from these kernels plus
// per-worker scratch buffers, and alloc_test.go / the opt allocation tests
// lock the invariant in with testing.AllocsPerRun.
//
// The row kernels (SparseDot, GradAccum, CSR.MatVec, CSR.MatTVec) detect a
// full row — every column stored, as a dense dataset stores each row — and
// run the contiguous loop on it instead of gathering through the index:
// the same operations in the same order, so the result is bit for bit the
// gather loop's.

// fullRow reports whether a row with indices idx stores every column of an
// n-column matrix. Under the index contract (strictly increasing within
// [0, n), checked where rows enter: NewSparseVec, CSR.AppendRow and the
// wire decoder) n indices can only be 0..n−1, so idx[k] == k. The length
// is all it reads: a load of idx[0] or idx[n−1] would miss the cache on a
// sampled row whose contiguous loop never touches idx.
func fullRow(idx []int32, n int) bool {
	return len(idx) == n
}

// DotAxpy performs y += alpha·x and returns the squared 2-norm of the
// updated y in the same pass — the fused residual-update + convergence-check
// step of conjugate gradient (r -= alpha·Ap; rs = r·r).
func DotAxpy(alpha float64, x, y Vec) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("la: DotAxpy length mismatch %d != %d", len(x), len(y)))
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i < len(x)-3; i += 4 {
		y0 := y[i] + alpha*x[i]
		y1 := y[i+1] + alpha*x[i+1]
		y2 := y[i+2] + alpha*x[i+2]
		y3 := y[i+3] + alpha*x[i+3]
		y[i], y[i+1], y[i+2], y[i+3] = y0, y1, y2, y3
		s0 += y0 * y0
		s1 += y1 * y1
		s2 += y2 * y2
		s3 += y3 * y3
	}
	for ; i < len(x); i++ {
		yi := y[i] + alpha*x[i]
		y[i] = yi
		s0 += yi * yi
	}
	return (s0 + s1) + (s2 + s3)
}

// ScaleAddInto sets dst = a·x + b·y elementwise. dst may alias x or y, so
// the CG direction update p = r + β·p is a single call with no temporary.
func ScaleAddInto(dst Vec, a float64, x Vec, b float64, y Vec) {
	if len(dst) != len(x) || len(x) != len(y) {
		panic("la: ScaleAddInto length mismatch")
	}
	i := 0
	for ; i < len(dst)-3; i += 4 {
		dst[i] = a*x[i] + b*y[i]
		dst[i+1] = a*x[i+1] + b*y[i+1]
		dst[i+2] = a*x[i+2] + b*y[i+2]
		dst[i+3] = a*x[i+3] + b*y[i+3]
	}
	for ; i < len(dst); i++ {
		dst[i] = a*x[i] + b*y[i]
	}
}

// SparseDot returns Σ_k val[k]·w[idx[k]] over raw CSR row slices (see
// CSR.RowNZ), the residual computation of every per-sample gradient. The
// indices must be strictly increasing and in range for w, as a CSR row's
// are. A full row is Dot(val, w): the same four accumulators over the same
// products.
func SparseDot(idx []int32, val []float64, w Vec) float64 {
	if len(idx) != len(val) {
		panic(fmt.Sprintf("la: SparseDot idx/val length mismatch %d != %d", len(idx), len(val)))
	}
	if fullRow(idx, len(w)) {
		return Dot(val, w)
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i < len(idx)-3; i += 4 {
		s0 += val[i] * w[idx[i]]
		s1 += val[i+1] * w[idx[i+1]]
		s2 += val[i+2] * w[idx[i+2]]
		s3 += val[i+3] * w[idx[i+3]]
	}
	for ; i < len(idx); i++ {
		s0 += val[i] * w[idx[i]]
	}
	return (s0 + s1) + (s2 + s3)
}

// GradAccum accumulates g[idx[k]] += alpha·val[k] over raw CSR row slices —
// the scatter half of every per-sample gradient (g += alpha·x for a sparse
// row x). Indices within one row are strictly increasing, so the unrolled
// writes never alias. A full row is Axpy(alpha, val, g).
func GradAccum(alpha float64, idx []int32, val []float64, g Vec) {
	if len(idx) != len(val) {
		panic(fmt.Sprintf("la: GradAccum idx/val length mismatch %d != %d", len(idx), len(val)))
	}
	if fullRow(idx, len(g)) {
		Axpy(alpha, val, g)
		return
	}
	i := 0
	for ; i < len(idx)-3; i += 4 {
		g[idx[i]] += alpha * val[i]
		g[idx[i+1]] += alpha * val[i+1]
		g[idx[i+2]] += alpha * val[i+2]
		g[idx[i+3]] += alpha * val[i+3]
	}
	for ; i < len(idx); i++ {
		g[idx[i]] += alpha * val[i]
	}
}
