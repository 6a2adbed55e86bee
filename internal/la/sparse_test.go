package la

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewSparseVecValidation(t *testing.T) {
	if _, err := NewSparseVec(5, []int32{0, 2, 4}, []float64{1, 2, 3}); err != nil {
		t.Fatalf("valid sparse vec rejected: %v", err)
	}
	if _, err := NewSparseVec(5, []int32{0, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := NewSparseVec(5, []int32{2, 1}, []float64{1, 2}); err == nil {
		t.Fatal("out-of-order indices accepted")
	}
	if _, err := NewSparseVec(5, []int32{0, 5}, []float64{1, 2}); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if _, err := NewSparseVec(5, []int32{0, 0}, []float64{1, 2}); err == nil {
		t.Fatal("duplicate index accepted")
	}
}

func TestSparseDenseRoundTrip(t *testing.T) {
	s, err := NewSparseVec(6, []int32{1, 3}, []float64{2.5, -1})
	if err != nil {
		t.Fatal(err)
	}
	d := s.Dense()
	want := Vec{0, 2.5, 0, -1, 0, 0}
	if !Equal(d, want, 0) {
		t.Fatalf("Dense = %v, want %v", d, want)
	}
	m := map[int32]float64{}
	for j, x := range d {
		m[int32(j)] = x
	}
	s2 := SparseFromMap(len(d), m)
	if !Equal(s2.Dense(), want, 0) {
		t.Fatalf("round trip = %v", s2.Dense())
	}
	if len(s2.Idx) != 2 {
		t.Fatalf("NNZ = %d, want 2", len(s2.Idx))
	}
}

func TestSparseFromMap(t *testing.T) {
	s := SparseFromMap(4, map[int32]float64{3: 1, 0: 2, 2: 0})
	if len(s.Idx) != 2 {
		t.Fatalf("NNZ = %d, want 2 (explicit zero dropped)", len(s.Idx))
	}
	if s.Idx[0] != 0 || s.Idx[1] != 3 {
		t.Fatalf("indices not sorted: %v", s.Idx)
	}
}

func TestSparseDotDenseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		d := NewVec(n)
		for i := range d {
			d[i] = rng.NormFloat64()
		}
		m := map[int32]float64{}
		for k := 0; k < rng.Intn(n+1); k++ {
			m[int32(rng.Intn(n))] = rng.NormFloat64()
		}
		s := SparseFromMap(n, m)
		got := s.DotDense(d)
		want := Dot(s.Dense(), d)
		if math.Abs(got-want) > 1e-12*(math.Abs(want)+1) {
			t.Fatalf("sparse dot %v != dense dot %v", got, want)
		}
	}
}

func TestSparseAxpyDenseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		m := map[int32]float64{}
		for k := 0; k < rng.Intn(n+1); k++ {
			m[int32(rng.Intn(n))] = rng.NormFloat64()
		}
		s := SparseFromMap(n, m)
		alpha := rng.NormFloat64()
		y1 := NewVec(n)
		y2 := NewVec(n)
		for i := range y1 {
			y1[i] = rng.NormFloat64()
			y2[i] = y1[i]
		}
		s.AxpyDense(alpha, y1)
		Axpy(alpha, s.Dense(), y2)
		if !Equal(y1, y2, 1e-12) {
			t.Fatalf("sparse axpy %v != dense axpy %v", y1, y2)
		}
	}
}

// Dense expands s into a freshly allocated dense vector.
func (s SparseVec) Dense() Vec {
	v := NewVec(s.N)
	for k, j := range s.Idx {
		v[j] = s.Val[k]
	}
	return v
}
