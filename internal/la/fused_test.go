package la

import (
	"math"
	"math/rand"
	"testing"
)

// Naive reference implementations the unrolled kernels are checked against.

func naiveDot(a, b Vec) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func naiveSparseDot(idx []int32, val []float64, w Vec) float64 {
	var s float64
	for k, j := range idx {
		s += val[k] * w[j]
	}
	return s
}

func randVec(rng *rand.Rand, n int) Vec {
	v := NewVec(n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func randSparse(rng *rand.Rand, n, nnz int) ([]int32, []float64) {
	seen := map[int32]bool{}
	for len(seen) < nnz {
		seen[int32(rng.Intn(n))] = true
	}
	idx := make([]int32, 0, nnz)
	for j := int32(0); int(j) < n; j++ {
		if seen[j] {
			idx = append(idx, j)
		}
	}
	val := make([]float64, len(idx))
	for k := range val {
		val[k] = rng.NormFloat64()
	}
	return idx, val
}

func close(t *testing.T, name string, got, want float64) {
	t.Helper()
	scale := math.Max(1, math.Abs(want))
	if math.Abs(got-want) > 1e-9*scale {
		t.Fatalf("%s: got %v want %v", name, got, want)
	}
}

// TestFusedAgainstNaive is the property test: across many random lengths
// (including the 0..3 unroll remainders) every fused/unrolled kernel must
// agree with its naive one-pass counterpart.
func TestFusedAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lengths := []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 64, 129, 1000}
	for _, n := range lengths {
		a, b := randVec(rng, n), randVec(rng, n)
		close(t, "Dot", Dot(a, b), naiveDot(a, b))

		alpha := rng.NormFloat64()
		y, yRef := b.Clone(), b.Clone()
		Axpy(alpha, a, y)
		for i := range yRef {
			yRef[i] += alpha * a[i]
		}
		if !Equal(y, yRef, 1e-12) {
			t.Fatalf("Axpy n=%d: %v != %v", n, y, yRef)
		}

		y, yRef = b.Clone(), b.Clone()
		rs := DotAxpy(alpha, a, y)
		for i := range yRef {
			yRef[i] += alpha * a[i]
		}
		if !Equal(y, yRef, 1e-12) {
			t.Fatalf("DotAxpy update n=%d", n)
		}
		close(t, "DotAxpy norm", rs, naiveDot(yRef, yRef))

		ca, cb := rng.NormFloat64(), rng.NormFloat64()
		dst := NewVec(n)
		ScaleAddInto(dst, ca, a, cb, b)
		for i := range dst {
			close(t, "ScaleAddInto", dst[i], ca*a[i]+cb*b[i])
		}
		// aliased form: dst == y (the CG direction update pattern)
		self := a.Clone()
		ScaleAddInto(self, ca, self, cb, b)
		for i := range self {
			close(t, "ScaleAddInto aliased", self[i], ca*a[i]+cb*b[i])
		}

		if n == 0 {
			continue
		}
		idx, val := randSparse(rng, n, 1+rng.Intn(n))
		w := randVec(rng, n)
		close(t, "SparseDot", SparseDot(idx, val, w), naiveSparseDot(idx, val, w))

		g, gRef := randVec(rng, n), NewVec(n)
		gRef.CopyFrom(g)
		GradAccum(alpha, idx, val, g)
		for k, j := range idx {
			gRef[j] += alpha * val[k]
		}
		if !Equal(g, gRef, 1e-12) {
			t.Fatalf("GradAccum n=%d", n)
		}
	}
}

// TestRowNZMatchesRow checks that RowNZ exposes exactly the slices of the
// Row view, for every row of a random matrix.
func TestRowNZMatchesRow(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const rows, cols = 40, 30
	m := NewCSR(rows, cols, rows*5)
	for i := 0; i < rows; i++ {
		idx, val := randSparse(rng, cols, 1+rng.Intn(8))
		sv, err := NewSparseVec(cols, idx, val)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AppendRow(sv); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < rows; i++ {
		r := m.Row(i)
		idx, val := m.RowNZ(i)
		if len(idx) != len(r.Idx) || len(val) != len(r.Val) {
			t.Fatalf("row %d: RowNZ lengths (%d,%d) != Row (%d,%d)", i, len(idx), len(val), len(r.Idx), len(r.Val))
		}
		for k := range idx {
			if idx[k] != r.Idx[k] || val[k] != r.Val[k] {
				t.Fatalf("row %d entry %d: RowNZ (%d,%v) != Row (%d,%v)", i, k, idx[k], val[k], r.Idx[k], r.Val[k])
			}
		}
	}
}

// TestKernelsAllocFree locks in the package's zero-allocation invariant for
// every kernel on the gradient hot path.
func TestKernelsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 512
	a, b, dst := randVec(rng, n), randVec(rng, n), NewVec(n)
	idx, val := randSparse(rng, n, 64)
	m := NewCSR(4, n, 4*64)
	for i := 0; i < 4; i++ {
		sv, _ := NewSparseVec(n, idx, val)
		if err := m.AppendRow(sv); err != nil {
			t.Fatal(err)
		}
	}
	x, y := randVec(rng, n), NewVec(4)
	var sink float64
	checks := map[string]func(){
		"Dot":          func() { sink += Dot(a, b) },
		"Axpy":         func() { Axpy(0.5, a, b) },
		"DotAxpy":      func() { sink += DotAxpy(0.5, a, b) },
		"ScaleAddInto": func() { ScaleAddInto(dst, 0.5, a, 0.25, b) },
		"SparseDot":    func() { sink += SparseDot(idx, val, a) },
		"GradAccum":    func() { GradAccum(0.5, idx, val, dst) },
		"RowNZ":        func() { i, v := m.RowNZ(2); sink += float64(len(i)) + v[0] },
		"Row+DotDense": func() { sink += m.Row(1).DotDense(a) },
		"MatVec":       func() { m.MatVec(x, y) },
	}
	for name, f := range checks {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s allocates %v per run, want 0", name, allocs)
		}
	}
	_ = sink
}

// TestVecPool checks the recycle contract: a returned vector of the same
// length comes back zeroed, and Get/Put cycles settle to zero allocations.
func TestVecPool(t *testing.T) {
	v := GetVec(33)
	for i := range v {
		v[i] = float64(i + 1)
	}
	PutVec(v)
	w := GetVec(33)
	for i, x := range w {
		if x != 0 {
			t.Fatalf("pooled vector not zeroed at %d: %v", i, x)
		}
	}
	if &w[0] != &v[0] {
		t.Fatalf("expected GetVec to reuse the pooled backing array")
	}
	PutVec(w)
	PutVec(nil) // no-op
	if allocs := testing.AllocsPerRun(100, func() {
		u := GetVec(33)
		PutVec(u)
	}); allocs != 0 {
		t.Errorf("steady-state GetVec/PutVec allocates %v per run, want 0", allocs)
	}
	// different length falls back to a fresh allocation but must still work
	u := GetVec(21)
	if len(u) != 21 {
		t.Fatalf("GetVec(21) returned len %d", len(u))
	}
	PutVec(u)
}
