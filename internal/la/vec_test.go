package la

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	a := Vec{1, 2, 3}
	b := Vec{4, 5, 6}
	if got := Dot(a, b); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDotEmpty(t *testing.T) {
	if got := Dot(Vec{}, Vec{}); got != 0 {
		t.Fatalf("Dot(empty) = %v, want 0", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot(Vec{1}, Vec{1, 2})
}

func TestAxpy(t *testing.T) {
	x := Vec{1, 2, 3}
	y := Vec{10, 20, 30}
	Axpy(2, x, y)
	want := Vec{12, 24, 36}
	if !Equal(y, want, 0) {
		t.Fatalf("Axpy = %v, want %v", y, want)
	}
}

func TestScale(t *testing.T) {
	v := Vec{1, -2, 3}
	Scale(-3, v)
	if !Equal(v, Vec{-3, 6, -9}, 0) {
		t.Fatalf("Scale = %v", v)
	}
}

func TestAddSubInto(t *testing.T) {
	a := Vec{1, 2}
	b := Vec{3, 5}
	dst := NewVec(2)
	SubInto(dst, a, b)
	if !Equal(dst, Vec{-2, -3}, 0) {
		t.Fatalf("SubInto = %v", dst)
	}
}

func TestNorms(t *testing.T) {
	v := Vec{3, -4}
	if got := Norm2(v); math.Abs(got-5) > 1e-15 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	if got := Norm1(v); got != 7 {
		t.Fatalf("Norm1 = %v, want 7", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	v := Vec{1, 2, 3}
	w := v.Clone()
	w[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestZero(t *testing.T) {
	v := Vec{1, 2, 3}
	v.Zero()
	if !Equal(v, Vec{0, 0, 0}, 0) {
		t.Fatalf("Zero = %v", v)
	}
}

func TestCopyFrom(t *testing.T) {
	v := NewVec(3)
	v.CopyFrom(Vec{7, 8, 9})
	if !Equal(v, Vec{7, 8, 9}, 0) {
		t.Fatalf("CopyFrom = %v", v)
	}
}

func clampVec(v []float64) Vec {
	out := make(Vec, len(v))
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 1
		}
		// keep magnitudes small so property checks avoid float overflow
		out[i] = math.Mod(x, 1e6)
	}
	return out
}

func TestPropDotCommutative(t *testing.T) {
	f := func(raw []float64) bool {
		a := clampVec(raw)
		b := clampVec(raw)
		for i := range b {
			b[i] = b[i]*0.5 + 1
		}
		return Dot(a, b) == Dot(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropAxpyLinearity(t *testing.T) {
	// y + a*x + b*x == y + (a+b)*x up to float tolerance.
	f := func(raw []float64, a, b float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			a = 0.5
		}
		if math.IsNaN(b) || math.IsInf(b, 0) {
			b = 0.25
		}
		a = math.Mod(a, 100)
		b = math.Mod(b, 100)
		x := clampVec(raw)
		y1 := NewVec(len(x))
		y2 := NewVec(len(x))
		Axpy(a, x, y1)
		Axpy(b, x, y1)
		Axpy(a+b, x, y2)
		for i := range y1 {
			scale := math.Abs(y2[i]) + 1
			if math.Abs(y1[i]-y2[i]) > 1e-9*scale {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropNorm2NonNegative(t *testing.T) {
	f := func(raw []float64) bool {
		v := clampVec(raw)
		n := Norm2(v)
		return n >= 0 && !math.IsNaN(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropTriangleInequality(t *testing.T) {
	f := func(raw []float64) bool {
		a := clampVec(raw)
		b := make(Vec, len(a))
		for i := range b {
			b[i] = -0.3*a[i] + 2
		}
		sum := a.Clone()
		Axpy(1, b, sum)
		return Norm2(sum) <= Norm2(a)+Norm2(b)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
