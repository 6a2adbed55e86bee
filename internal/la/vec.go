// Package la provides the dense and sparse linear-algebra substrate used by
// the ASYNC reproduction: BLAS-1/2 style kernels over dense vectors,
// compressed sparse rows, and a conjugate-gradient solver used to compute
// reference optima for the least-squares experiments.
//
// The package is a pure-Go stand-in for the Breeze/netlib BLAS stack the
// paper uses; the kernels are deliberately allocation-free on the hot paths
// so that per-task compute time in the simulated cluster is dominated by
// arithmetic, as it is on a real worker.
//
// Zero-allocation invariant: every kernel on the gradient hot path — Dot,
// Axpy, the fused DotAxpy/ScaleAddInto, SparseDot, GradAccum, the
// CSR.Row/RowNZ views, MatVec, and steady-state ConjGrad — performs zero
// heap allocations (asserted by TestKernelsAllocFree with
// testing.AllocsPerRun). Vectors that must outlive a call come from the
// GetVec/PutVec pool, which recycles storage across tasks; everything else
// is caller-provided or O(1). Treat this as API: a change that makes any
// of these allocate is a regression; the AllocsPerRun tests fail on it and
// the repository benchmark (benchmark/) shows it as la.grad_accum_ns and
// opt.kernel_task_us movement.
//
// Sparse-delta invariant: the O(nnz) data path is built from DeltaVec (a
// pooled, mutable sparse update with sorted indices — GetDelta/PutDelta
// mirror the dense pool) and DeltaAccum (a generation-stamped scatter
// accumulator whose Reset is O(1) and whose Compact radix-sorts only the
// touched coordinate set). A task that accumulates s samples of at most k
// nonzeros costs O(s·k) plus O(t) compaction for t distinct touched
// coordinates — never O(dimension) — and, like the dense path, allocates
// nothing in steady state (TestDeltaAccumSteadyStateAllocFree,
// TestSparseGradKernelZeroAlloc in internal/opt). When the sparse path
// engages, which update terms may be deferred, and how deltas travel the
// wire are contracts of internal/opt (sparse.go, lazy.go) and
// internal/cluster (codec.go) respectively.
package la

import (
	"fmt"
	"math"
)

// Vec is a dense vector of float64.
type Vec []float64

// NewVec returns a zeroed dense vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Clone returns a copy of v.
func (v Vec) Clone() Vec {
	w := make(Vec, len(v))
	copy(w, v)
	return w
}

// Zero sets every element of v to zero.
func (v Vec) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// CopyFrom copies src into v. It panics if the lengths differ.
func (v Vec) CopyFrom(src Vec) {
	if len(v) != len(src) {
		panic(fmt.Sprintf("la: CopyFrom length mismatch %d != %d", len(v), len(src)))
	}
	copy(v, src)
}

// Dot returns the inner product of two dense vectors (4-way unrolled).
func Dot(a, b Vec) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("la: Dot length mismatch %d != %d", len(a), len(b)))
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i < len(a)-3; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// Axpy computes y += alpha*x in place (4-way unrolled).
func Axpy(alpha float64, x, y Vec) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("la: Axpy length mismatch %d != %d", len(x), len(y)))
	}
	i := 0
	for ; i < len(x)-3; i += 4 {
		y[i] += alpha * x[i]
		y[i+1] += alpha * x[i+1]
		y[i+2] += alpha * x[i+2]
		y[i+3] += alpha * x[i+3]
	}
	for ; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

// Scale multiplies every element of v by alpha in place.
func Scale(alpha float64, v Vec) {
	for i := range v {
		v[i] *= alpha
	}
}

// SubInto sets dst = a - b.
func SubInto(dst, a, b Vec) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("la: SubInto length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v Vec) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Norm1 returns the ℓ1 norm Σ|v_i| of v.
func Norm1(v Vec) float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// Equal reports whether a and b have the same length and elements within tol.
func Equal(a, b Vec, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}
