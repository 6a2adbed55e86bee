package la

import (
	"math"
	"math/rand"
	"testing"
)

func randomCSR(rng *rand.Rand, rows, cols int, density float64) *CSR {
	m := NewCSR(rows, cols, int(float64(rows*cols)*density)+1)
	for i := 0; i < rows; i++ {
		entries := map[int32]float64{}
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				entries[int32(j)] = rng.NormFloat64()
			}
		}
		if err := m.AppendRow(SparseFromMap(cols, entries)); err != nil {
			panic(err)
		}
	}
	return m
}

func denseOf(m *CSR) [][]float64 {
	out := make([][]float64, m.NumRows)
	for i := range out {
		out[i] = m.Row(i).Dense()
	}
	return out
}

func TestCSRAppendAndRow(t *testing.T) {
	m := NewCSR(2, 3, 4)
	r0, _ := NewSparseVec(3, []int32{0, 2}, []float64{1, 2})
	r1, _ := NewSparseVec(3, []int32{1}, []float64{5})
	if err := m.AppendRow(r0); err != nil {
		t.Fatal(err)
	}
	if err := m.AppendRow(r1); err != nil {
		t.Fatal(err)
	}
	if !m.Complete() {
		t.Fatal("matrix should be complete")
	}
	if err := m.AppendRow(r1); err == nil {
		t.Fatal("extra row accepted")
	}
	if !Equal(m.Row(0).Dense(), Vec{1, 0, 2}, 0) {
		t.Fatalf("Row(0) = %v", m.Row(0).Dense())
	}
	if !Equal(m.Row(1).Dense(), Vec{0, 5, 0}, 0) {
		t.Fatalf("Row(1) = %v", m.Row(1).Dense())
	}
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
}

func TestCSRAppendRowDimMismatch(t *testing.T) {
	m := NewCSR(1, 3, 1)
	r, _ := NewSparseVec(4, []int32{0}, []float64{1})
	if err := m.AppendRow(r); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestMatVecAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(20), 1+rng.Intn(20)
		m := randomCSR(rng, rows, cols, 0.3)
		x := NewVec(cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := NewVec(rows)
		m.MatVec(x, y)
		d := denseOf(m)
		for i := 0; i < rows; i++ {
			var want float64
			for j := 0; j < cols; j++ {
				want += d[i][j] * x[j]
			}
			if math.Abs(y[i]-want) > 1e-10 {
				t.Fatalf("MatVec row %d = %v, want %v", i, y[i], want)
			}
		}
	}
}

func TestMatTVecAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(20), 1+rng.Intn(20)
		m := randomCSR(rng, rows, cols, 0.3)
		x := NewVec(rows)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := NewVec(cols)
		m.MatTVec(x, y)
		d := denseOf(m)
		for j := 0; j < cols; j++ {
			var want float64
			for i := 0; i < rows; i++ {
				want += d[i][j] * x[i]
			}
			if math.Abs(y[j]-want) > 1e-10 {
				t.Fatalf("MatTVec col %d = %v, want %v", j, y[j], want)
			}
		}
	}
}

func TestSliceRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randomCSR(rng, 10, 6, 0.4)
	s := m.SliceRows(3, 7)
	if s.NumRows != 4 || s.NumCols != 6 {
		t.Fatalf("slice dims %dx%d", s.NumRows, s.NumCols)
	}
	for i := 0; i < 4; i++ {
		if !Equal(s.Row(i).Dense(), m.Row(3+i).Dense(), 0) {
			t.Fatalf("slice row %d differs", i)
		}
	}
	// mutating the slice must not affect the original
	if s.NNZ() > 0 {
		s.Val[0] += 100
		if len(m.Row(3).Idx) > 0 && m.Row(3).Val[0] == s.Val[0] {
			t.Fatal("SliceRows shares storage with parent")
		}
	}
}

func TestSliceRowsOutOfRangePanics(t *testing.T) {
	m := NewCSR(2, 2, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.SliceRows(0, 3)
}

func TestDensity(t *testing.T) {
	m := NewCSR(2, 2, 2)
	r, _ := NewSparseVec(2, []int32{0}, []float64{1})
	_ = m.AppendRow(r)
	_ = m.AppendRow(r)
	if got := m.Density(); math.Abs(got-0.5) > 1e-15 {
		t.Fatalf("Density = %v, want 0.5", got)
	}
	empty := NewCSR(0, 0, 0)
	if empty.Density() != 0 {
		t.Fatal("empty density should be 0")
	}
}

// Property: (Aᵀ(Ax))·x == ||Ax||² — exercises MatVec and MatTVec consistency.
func TestPropMatVecMatTVecAdjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 30; trial++ {
		rows, cols := 1+rng.Intn(15), 1+rng.Intn(15)
		m := randomCSR(rng, rows, cols, 0.4)
		x := NewVec(cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		ax := NewVec(rows)
		m.MatVec(x, ax)
		atax := NewVec(cols)
		m.MatTVec(ax, atax)
		lhs := Dot(atax, x)
		rhs := Dot(ax, ax)
		if math.Abs(lhs-rhs) > 1e-9*(math.Abs(rhs)+1) {
			t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
		}
	}
}
