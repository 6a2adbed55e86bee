package la

import (
	"math/rand"
	"sort"
	"testing"
)

// randDelta builds a random delta with nnz distinct sorted indices in [0,n).
func randDelta(rng *rand.Rand, n, nnz int) *DeltaVec {
	picked := map[int32]float64{}
	for len(picked) < nnz {
		picked[int32(rng.Intn(n))] = rng.NormFloat64()
	}
	idx := make([]int32, 0, nnz)
	for j := range picked {
		idx = append(idx, j)
	}
	sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
	val := make([]float64, nnz)
	for i, j := range idx {
		val[i] = picked[j]
	}
	return &DeltaVec{Idx: idx, Val: val, N: n}
}

func TestDeltaAxpyDotMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 5 + rng.Intn(80)
		d := randDelta(rng, n, 1+rng.Intn(n))
		w := NewVec(n)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		dd := d.Dense()
		if got, want := SparseDot(d.Idx, d.Val, w), Dot(dd, w); !approx(got, want, 1e-12) {
			t.Fatalf("DotDense %g != dense %g", got, want)
		}
		y1, y2 := w.Clone(), w.Clone()
		d.AxpyDense(-0.7, y1)
		Axpy(-0.7, dd, y2)
		if !Equal(y1, y2, 1e-12) {
			t.Fatal("AxpyDense disagrees with dense Axpy")
		}
	}
}

func TestDeltaMergeFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		n := 5 + rng.Intn(60)
		a := randDelta(rng, n, 1+rng.Intn(n))
		b := randDelta(rng, n, 1+rng.Intn(n))
		want := a.Dense()
		Axpy(1, b.Dense(), want)
		bLen, bDense := len(b.Idx), b.Dense()
		a.MergeFrom(b)
		// result sorted, unique, matches the dense sum
		for k := 1; k < len(a.Idx); k++ {
			if a.Idx[k] <= a.Idx[k-1] {
				t.Fatalf("merge broke ordering at %d: %v", k, a.Idx)
			}
		}
		if !Equal(a.Dense(), want, 1e-12) {
			t.Fatal("merge result disagrees with dense sum")
		}
		// b untouched
		if len(b.Idx) != bLen || !Equal(b.Dense(), bDense, 0) {
			t.Fatal("MergeFrom mutated its argument")
		}
	}
}

func TestDeltaAccumMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 120
	acc := NewDeltaAccum(n)
	for trial := 0; trial < 30; trial++ {
		acc.Reset()
		dense := NewVec(n)
		for s := 0; s < 15; s++ {
			row := randDelta(rng, n, 1+rng.Intn(12))
			alpha := rng.NormFloat64()
			acc.Accum(alpha, row.Idx, row.Val)
			GradAccum(alpha, row.Idx, row.Val, dense)
		}
		d := acc.Compact()
		for k := 1; k < len(d.Idx); k++ {
			if d.Idx[k] <= d.Idx[k-1] {
				t.Fatalf("Compact broke ordering: %v", d.Idx)
			}
		}
		if !Equal(d.Dense(), dense, 0) {
			t.Fatal("accumulated delta disagrees bitwise with dense scatter")
		}
		PutDelta(d)
	}
}

// TestDeltaAccumSteadyStateAllocFree pins the sparse inner loop to zero
// allocations once the touched list and the pool are warm — the sparse-path
// counterpart of the dense zero-allocation invariant.
func TestDeltaAccumSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 500
	acc := NewDeltaAccum(n)
	rows := make([]*DeltaVec, 20)
	for i := range rows {
		rows[i] = randDelta(rng, n, 25)
	}
	work := func() {
		acc.Reset()
		for _, r := range rows {
			acc.Accum(0.5, r.Idx, r.Val)
		}
		PutDelta(acc.Compact())
	}
	work() // warm the touched list and the pool
	if allocs := testing.AllocsPerRun(100, work); allocs != 0 {
		t.Errorf("sparse accumulate+compact allocates %v per task, want 0", allocs)
	}
}

func TestSortInt32(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		s := make([]int32, n)
		for i := range s {
			s[i] = int32(rng.Intn(50)) // duplicates on purpose
		}
		want := append([]int32(nil), s...)
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		sortInt32(s)
		for i := range s {
			if s[i] != want[i] {
				t.Fatalf("sortInt32 wrong at %d: %v vs %v", i, s, want)
			}
		}
	}
}

func TestDeltaPoolRoundTrip(t *testing.T) {
	d := GetDelta(8, 100)
	if len(d.Idx) != 8 || d.N != 100 {
		t.Fatalf("GetDelta shape (%d,%d)", len(d.Idx), d.N)
	}
	PutDelta(d)
	PutDelta(nil) // no-op
	e := GetDelta(4, 50)
	if len(e.Idx) != 4 || e.N != 50 {
		t.Fatalf("recycled shape (%d,%d)", len(e.Idx), e.N)
	}
	PutDelta(e)
}

func approx(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol*(1+abs(a)+abs(b))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestPooledDeltaUnevenCapacity: a delta filled by plain appends grows its
// two slices out of step (int32 and float64 size classes differ); once
// pooled, the next GetDelta must still hand out room for nnz entries in both.
func TestPooledDeltaUnevenCapacity(t *testing.T) {
	for _, caps := range [][2]int{{600, 512}, {512, 600}} {
		for _, nnz := range []int{500, 558, 700} {
			PutDelta(&DeltaVec{Idx: make([]int32, 0, caps[0]), Val: make([]float64, 0, caps[1])})
			g := GetDelta(nnz, 1000)
			if len(g.Idx) != nnz || len(g.Val) != nnz {
				t.Fatalf("caps %v, GetDelta(%d): %d indices, %d values", caps, nnz, len(g.Idx), len(g.Val))
			}
		}
	}
}

// Dense expands d into a freshly allocated dense vector.
func (d *DeltaVec) Dense() Vec {
	v := NewVec(d.N)
	for k, j := range d.Idx {
		v[j] = d.Val[k]
	}
	return v
}
