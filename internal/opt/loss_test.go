package opt

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/la"
)

// gradCheck pins a loss's row methods against each other by central
// differences over random (dot, y): GradCoeff is dValue/d(dot), and the
// numerical second derivative stays within the Curvature bound.
func gradCheck(t *testing.T, loss Loss) {
	t.Helper()
	const h = 1e-5
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		dot := 4 * rng.NormFloat64()
		y := float64(1 - 2*rng.Intn(2)) // ±1
		want := (loss.Value(dot+h, y) - loss.Value(dot-h, y)) / (2 * h)
		if got := loss.GradCoeff(dot, y); math.Abs(got-want) > 1e-6*(math.Abs(want)+1) {
			t.Fatalf("%s: GradCoeff(%v, %v) = %v, finite diff %v", loss.Name(), dot, y, got, want)
		}
		curv := (loss.GradCoeff(dot+h, y) - loss.GradCoeff(dot-h, y)) / (2 * h)
		if curv > loss.Curvature()+1e-6 {
			t.Fatalf("%s: ℓ” = %v at (%v, %v) exceeds the bound %v", loss.Name(), curv, dot, y, loss.Curvature())
		}
	}
}

func TestLeastSquaresGradient(t *testing.T) { gradCheck(t, LeastSquares{}) }
func TestLogisticGradient(t *testing.T)     { gradCheck(t, Logistic{}) }

// TestRidgeGradient: the ridge objective's gradient is the mean row
// gradient GradCoeff(x·w, y)·x plus λ2·w — the split every driver relies on
// when it adds the ridge term itself — checked against central differences
// of Objective.
func TestRidgeGradient(t *testing.T) {
	d, err := dataset.Generate(dataset.SynthConfig{Name: "ridge", Rows: 30, Cols: 6, NNZPerRow: 4, Noise: 0.2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	loss := Composite{Inner: LeastSquares{}, L2: 0.3}
	rng := rand.New(rand.NewSource(22))
	w := la.NewVec(d.NumCols())
	for j := range w {
		w[j] = rng.NormFloat64()
	}
	g := la.NewVec(len(w))
	for i := 0; i < d.NumRows(); i++ {
		x := d.X.Row(i)
		x.AxpyDense(loss.GradCoeff(x.DotDense(w), d.Y[i])/float64(d.NumRows()), g)
	}
	la.Axpy(loss.L2, w, g)
	const h = 1e-6
	for j := range w {
		wp, wm := w.Clone(), w.Clone()
		wp[j] += h
		wm[j] -= h
		want := (Objective(d, loss, wp) - Objective(d, loss, wm)) / (2 * h)
		if math.Abs(g[j]-want) > 1e-5*(math.Abs(want)+1) {
			t.Fatalf("grad[%d] = %v, finite diff %v", j, g[j], want)
		}
	}
}

func TestLogisticValueStable(t *testing.T) {
	if v := (Logistic{}).Value(500, 1); v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("logistic value at large margin = %v", v)
	}
	if v := (Logistic{}).Value(500, -1); math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("logistic value at large negative margin = %v", v)
	}
}

func TestObjectiveAtPlantedOptimum(t *testing.T) {
	// noiseless planted problem: objective at wTrue is ~0, and the
	// reference optimum matches
	d, err := dataset.Generate(dataset.SynthConfig{
		Name: "t", Rows: 80, Cols: 6, NNZPerRow: 6, Noise: 0, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, fstar, err := ReferenceOptimum(d)
	if err != nil {
		t.Fatal(err)
	}
	if fstar > 1e-10 {
		t.Fatalf("fstar = %v for noiseless planted problem", fstar)
	}
	if len(w) != 6 {
		t.Fatalf("w dims %d", len(w))
	}
	// any perturbation must not be better
	w2 := w.Clone()
	w2[0] += 0.5
	if Objective(d, LeastSquares{}, w2) < fstar {
		t.Fatal("perturbed point beats the optimum")
	}
}

func TestReferenceOptimumIsMinimizer(t *testing.T) {
	d, err := dataset.Generate(dataset.SynthConfig{
		Name: "t", Rows: 100, Cols: 8, NNZPerRow: 4, Noise: 0.5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	wstar, fstar, err := ReferenceOptimum(d)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		w := wstar.Clone()
		for j := range w {
			w[j] += 0.1 * rng.NormFloat64()
		}
		if Objective(d, LeastSquares{}, w) < fstar-1e-9 {
			t.Fatalf("found better point than reference optimum (trial %d)", trial)
		}
	}
}

func TestObjectiveEmpty(t *testing.T) {
	d := &dataset.Dataset{Name: "e", X: la.NewCSR(0, 3, 0), Y: la.Vec{}}
	if got := Objective(d, LeastSquares{}, la.Vec{0, 0, 0}); got != 0 {
		t.Fatalf("empty objective = %v", got)
	}
}

func TestSchedules(t *testing.T) {
	if a := (Constant{A: 0.5}).Alpha(100); a != 0.5 {
		t.Fatalf("constant = %v", a)
	}
	s := InvSqrt{A: 1}
	if a := s.Alpha(0); a != 1 {
		t.Fatalf("invsqrt(0) = %v", a)
	}
	if a := s.Alpha(3); math.Abs(a-0.5) > 1e-12 {
		t.Fatalf("invsqrt(3) = %v, want 0.5", a)
	}
	sc := Scaled{Base: Constant{A: 1}, Factor: 8}
	if a := sc.Alpha(0); a != 0.125 {
		t.Fatalf("scaled = %v", a)
	}
	for _, sch := range []Schedule{Constant{A: 1}, s, sc} {
		if sch.Name() == "" {
			t.Fatal("schedule without a name")
		}
	}
}

func TestStalenessAdapt(t *testing.T) {
	if a := StalenessAdapt(1.0, 0); a != 1.0 {
		t.Fatalf("staleness 0: %v", a)
	}
	if a := StalenessAdapt(1.0, 1); a != 1.0 {
		t.Fatalf("staleness 1: %v", a)
	}
	if a := StalenessAdapt(1.0, 4); a != 0.25 {
		t.Fatalf("staleness 4: %v", a)
	}
}

func TestAsyncDecayMatchesSyncPerRound(t *testing.T) {
	// after j = P·k async updates, the async step must equal the sync step
	// at round k divided by P
	syncS := InvSqrt{A: 1}
	asyncS := AsyncDecay{A: 1, Workers: 8}
	for _, k := range []int64{0, 1, 4, 25, 100} {
		want := syncS.Alpha(k) / 8
		got := asyncS.Alpha(8 * k)
		if math.Abs(got-want) > 0.15*want {
			t.Fatalf("k=%d: async %v vs sync/P %v", k, got, want)
		}
	}
}

func TestScheduleDecayMonotone(t *testing.T) {
	for _, sch := range []Schedule{InvSqrt{A: 1}, Scaled{Base: InvSqrt{A: 1}, Factor: 2}, AsyncDecay{A: 1, Workers: 4}} {
		prev := math.Inf(1)
		for k := int64(0); k < 50; k++ {
			a := sch.Alpha(k)
			if a > prev {
				t.Fatalf("%s not monotone at k=%d", sch.Name(), k)
			}
			if a <= 0 {
				t.Fatalf("%s non-positive at k=%d", sch.Name(), k)
			}
			prev = a
		}
	}
}

// TestObjectivePenaltiesOnce: Objective adds a Composite's penalties once
// per evaluation; that must agree, to rounding, with the textbook sum —
// plain nested loops over the dense rows, then both penalties — on dense
// and on CSR-sparse data.
func TestObjectivePenaltiesOnce(t *testing.T) {
	for _, cfg := range []dataset.SynthConfig{
		{Name: "dense", Rows: 120, Cols: 16, NNZPerRow: 16, Noise: 0.3, Seed: 5},
		{Name: "csr", Rows: 90, Cols: 400, NNZPerRow: 7, Noise: 0.3, Seed: 6},
	} {
		d, err := dataset.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		w := la.NewVec(d.NumCols())
		for j := range w {
			w[j] = rng.NormFloat64()
		}
		for _, loss := range []Loss{
			LeastSquares{},
			Composite{Inner: LeastSquares{}, L2: 0.3},
			Composite{Inner: Logistic{}, L2: 0.01},
			Composite{Inner: LeastSquares{}, L2: 0.02, L1: 0.1},
			Composite{Inner: Logistic{}, L1: 0.05},
		} {
			var sum, sq, abs float64
			for i := 0; i < d.NumRows(); i++ {
				x := densify(d.NumCols(), d.X.Row(i))
				var dot float64
				for j := range x {
					dot += x[j] * w[j]
				}
				sum += loss.Value(dot, d.Y[i])
			}
			for _, v := range w {
				sq += v * v
				abs += math.Abs(v)
			}
			l2, l1 := loss.Penalties()
			want := sum/float64(d.NumRows()) + 0.5*l2*sq + l1*abs
			if got := Objective(d, loss, w); math.Abs(got-want) > 1e-12*math.Abs(want) {
				t.Errorf("%s, %s: Objective %v, textbook %v", cfg.Name, loss.Name(), got, want)
			}
		}
	}
}

// densify expands a sparse row or delta of dimension n into a freshly
// allocated dense vector.
func densify(n int, x interface{ AxpyDense(float64, la.Vec) }) la.Vec {
	v := la.NewVec(n)
	x.AxpyDense(1, v)
	return v
}
