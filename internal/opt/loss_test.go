package opt

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/la"
)

// numGrad approximates ∇ℓ by central differences.
func numGrad(loss Loss, x la.SparseVec, y float64, w la.Vec) la.Vec {
	const h = 1e-6
	g := la.NewVec(len(w))
	for j := range w {
		wp := w.Clone()
		wm := w.Clone()
		wp[j] += h
		wm[j] -= h
		g[j] = (loss.Value(x, y, wp) - loss.Value(x, y, wm)) / (2 * h)
	}
	return g
}

func gradCheck(t *testing.T, loss Loss) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(6)
		w := la.NewVec(n)
		for j := range w {
			w[j] = rng.NormFloat64()
		}
		m := map[int32]float64{}
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.7 {
				m[int32(j)] = rng.NormFloat64()
			}
		}
		x := la.SparseFromMap(n, m)
		y := float64(1 - 2*rng.Intn(2)) // ±1
		got := la.NewVec(n)
		loss.AddGrad(x, y, w, got)
		want := numGrad(loss, x, y, w)
		for j := range got {
			if math.Abs(got[j]-want[j]) > 1e-4*(math.Abs(want[j])+1) {
				t.Fatalf("%s: grad[%d] = %v, finite diff %v (trial %d)", loss.Name(), j, got[j], want[j], trial)
			}
		}
	}
}

func TestLeastSquaresGradient(t *testing.T) { gradCheck(t, LeastSquares{}) }
func TestLogisticGradient(t *testing.T)     { gradCheck(t, Logistic{}) }
func TestRidgeGradient(t *testing.T)        { gradCheck(t, Composite{Inner: LeastSquares{}, L2: 0.3}) }

func TestLogisticValueStable(t *testing.T) {
	x, _ := la.NewSparseVec(1, []int32{0}, []float64{1})
	big := la.Vec{500}
	if v := (Logistic{}).Value(x, 1, big); v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("logistic value at large margin = %v", v)
	}
	if v := (Logistic{}).Value(x, -1, big); math.IsNaN(v) || math.IsInf(v, 0) {
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
	p := Polynomial{A: 6, B: 2, C: 1}
	if a := p.Alpha(0); a != 3 {
		t.Fatalf("poly(0) = %v", a)
	}
	if a := p.Alpha(4); a != 1 {
		t.Fatalf("poly(4) = %v", a)
	}
	sc := Scaled{Base: Constant{A: 1}, Factor: 8}
	if a := sc.Alpha(0); a != 0.125 {
		t.Fatalf("scaled = %v", a)
	}
	for _, sch := range []Schedule{Constant{A: 1}, s, p, sc} {
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
	for _, sch := range []Schedule{InvSqrt{A: 1}, Polynomial{A: 1, B: 1, C: 0.5}, AsyncDecay{A: 1, Workers: 4}} {
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
// per evaluation; that must agree, to rounding, with what it replaces — the
// mean of the per-sample Loss.Value, whose semantics stay — on dense and on
// CSR-sparse data, for nested wrappers too.
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
			Composite{Inner: Composite{Inner: LeastSquares{}, L2: 0.1}, L2: 0.2, L1: 0.3},
		} {
			var sum float64
			for i := 0; i < d.NumRows(); i++ {
				sum += loss.Value(d.X.Row(i), d.Y[i], w)
			}
			want := sum / float64(d.NumRows())
			if got := Objective(d, loss, w); math.Abs(got-want) > 1e-12*math.Abs(want) {
				t.Errorf("%s, %s: Objective %v, per-sample mean %v", cfg.Name, loss.Name(), got, want)
			}
		}
	}
}
