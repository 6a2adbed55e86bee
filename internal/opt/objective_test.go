package opt

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/la"
)

// TestObjectiveSpecResolve pins the wire spec → Loss mapping and its
// validation errors.
func TestObjectiveSpecResolve(t *testing.T) {
	cases := []struct {
		name string
		spec ObjectiveSpec
		want string // Name() of the resolved loss; "" = expect an error
	}{
		{"zero value", ObjectiveSpec{}, LeastSquares{}.Name()},
		{"ls alias", ObjectiveSpec{Loss: "ls"}, LeastSquares{}.Name()},
		{"canonical", ObjectiveSpec{Loss: "least-squares"}, LeastSquares{}.Name()},
		{"logistic", ObjectiveSpec{Loss: "Logistic"}, Logistic{}.Name()},
		{"l2 only is ridge", ObjectiveSpec{L2: 0.1}, Composite{Inner: LeastSquares{}, L2: 0.1}.Name()},
		{"l1 is composite", ObjectiveSpec{L2: 0.1, L1: 0.01}, Composite{Inner: LeastSquares{}, L2: 0.1, L1: 0.01}.Name()},
		{"unknown loss", ObjectiveSpec{Loss: "hinge"}, ""},
		{"negative l2", ObjectiveSpec{L2: -1}, ""},
		{"negative l1", ObjectiveSpec{L1: -1}, ""},
		{"nan l2", ObjectiveSpec{L2: math.NaN()}, ""},
		{"inf l1", ObjectiveSpec{L1: math.Inf(1)}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, err := tc.spec.Resolve()
			if tc.want == "" {
				if err == nil {
					t.Fatalf("Resolve(%+v) accepted an invalid spec", tc.spec)
				}
				if tc.spec.Validate() == nil {
					t.Fatalf("Validate(%+v) disagrees with Resolve", tc.spec)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if l.Name() != tc.want {
				t.Fatalf("Resolve(%+v) = %q, want %q", tc.spec, l.Name(), tc.want)
			}
		})
	}
	if !(ObjectiveSpec{}).IsZero() || (ObjectiveSpec{L1: 1}).IsZero() {
		t.Fatal("IsZero misclassifies")
	}
}

// TestObjectiveSpecKey: loss-name aliases collapse to one cache key,
// distinct penalties do not.
func TestObjectiveSpecKey(t *testing.T) {
	a := ObjectiveSpec{Loss: "ls", L2: 0.1}.Key()
	b := ObjectiveSpec{Loss: "least-squares", L2: 0.1}.Key()
	c := ObjectiveSpec{L2: 0.1}.Key()
	if a != b || b != c {
		t.Fatalf("alias keys differ: %q %q %q", a, b, c)
	}
	if (ObjectiveSpec{L2: 0.1}).Key() == (ObjectiveSpec{L2: 0.1, L1: 0.01}).Key() {
		t.Fatal("distinct objectives share a cache key")
	}
}

// TestReferenceOptimumForComposite pins the generalized (FISTA) reference
// solve that backs auto_fstar for composite objectives: the returned value
// must be a true lower envelope of solver runs and beat both the origin
// and random perturbations of the returned minimizer.
func TestReferenceOptimumForComposite(t *testing.T) {
	d, err := dataset.Generate(dataset.SynthConfig{
		Name: "refopt", Rows: 120, Cols: 24, NNZPerRow: 8, Noise: 0.1, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	loss := Composite{Inner: LeastSquares{}, L2: 0.05, L1: 0.15}
	w, fstar, err := ReferenceOptimumFor(d, loss)
	if err != nil {
		t.Fatal(err)
	}
	if got := Objective(d, loss, w); math.Abs(got-fstar) > 1e-12 {
		t.Fatalf("fstar %v does not match F(w*) = %v", fstar, got)
	}
	if f0 := Objective(d, loss, la.NewVec(d.NumCols())); fstar >= f0 {
		t.Fatalf("reference optimum %v no better than the origin %v", fstar, f0)
	}
	// first-order optimality, probed: any small perturbation is worse
	for _, eps := range []float64{1e-3, -1e-3} {
		for j := 0; j < d.NumCols(); j += 5 {
			pert := w.Clone()
			pert[j] += eps
			if f := Objective(d, loss, pert); f < fstar-1e-10 {
				t.Fatalf("perturbing w*[%d] by %v improved F: %v < %v", j, eps, f, fstar)
			}
		}
	}
	zeros := 0
	for _, x := range w {
		if x == 0 {
			zeros++
		}
	}
	if zeros == 0 {
		t.Fatal("ℓ1 reference optimum has no exact zeros")
	}

	// plain least squares keeps the normal-equations fast path
	_, fLS, err := ReferenceOptimumFor(d, LeastSquares{})
	if err != nil {
		t.Fatal(err)
	}
	_, fDirect, err := ReferenceOptimum(d)
	if err != nil {
		t.Fatal(err)
	}
	if fLS != fDirect {
		t.Fatalf("LS fast path diverged: %v vs %v", fLS, fDirect)
	}

	// logistic composite: solvable, finite, below the origin
	bin, err := dataset.Generate(dataset.SynthConfig{
		Name: "refopt-bin", Rows: 120, Cols: 16, NNZPerRow: 8, Binary: true, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	logit := Composite{Inner: Logistic{}, L2: 0.01, L1: 0.005}
	_, fLogit, err := ReferenceOptimumFor(bin, logit)
	if err != nil {
		t.Fatal(err)
	}
	if f0 := Objective(bin, logit, la.NewVec(bin.NumCols())); !(fLogit < f0) {
		t.Fatalf("logistic reference optimum %v no better than the origin %v", fLogit, f0)
	}
}

// spreadDiag is a diagonal design's entries, |a_j| over 0.02–5: its
// curvatures a_j² span nearly five orders of magnitude, badly conditioned
// as the wide sparse sets are, and λmax(XᵀX) = 25.
var spreadDiag = []float64{5, -0.02, 3.1, 0.05, -1.7, 0.4, 2.2, -0.1, 0.9, 4.4, -0.03, 1.3}

// TestReferenceOptimumForClosedForm checks the composite reference solve
// against an oracle that shares no code with it: on spreadDiag's design the
// minimizer is
//
//	w*_j = soft(2·a_j·y_j, n·λ1) / (2·a_j² + n·λ2),
//
// including the exact zeros the soft-threshold produces.
func TestReferenceOptimumForClosedForm(t *testing.T) {
	a := spreadDiag
	y := []float64{1.2, 40, -0.9, 9, 0.1, -2.5, 0.05, 7, -1.1, 0.02, -30, 0.6}
	const l2, l1 = 0.01, 0.05
	d := diagDataset(t, a, y)
	n := float64(len(a))
	w, _, err := ReferenceOptimumFor(d, Composite{Inner: LeastSquares{}, L2: l2, L1: l1})
	if err != nil {
		t.Fatal(err)
	}
	want := make(la.Vec, len(a))
	for j := range a {
		want[j] = SoftThreshold(2*a[j]*y[j], n*l1) / (2*a[j]*a[j] + n*l2)
	}
	// the solve stops on steps relative to 1 + ‖w‖∞, so its error is too
	tol := 1e-9 * (1 + maxAbs(want))
	zeros := 0
	for j := range a {
		if math.Abs(w[j]-want[j]) > tol {
			t.Fatalf("w[%d] = %v, closed form %v (tolerance %.2g)", j, w[j], want[j], tol)
		}
		if want[j] == 0 {
			if w[j] != 0 {
				t.Fatalf("w[%d] = %v, closed form is exactly 0", j, w[j])
			}
			zeros++
		}
	}
	if zeros == 0 || zeros == len(a) {
		t.Fatalf("%d of %d closed-form zeros: the design exercises too little", zeros, len(a))
	}
}

// greedyCDObjective is the elastic net the greedy_cd benchmark workload
// solves on sparse-wide data.
var greedyCDObjective = Composite{Inner: LeastSquares{}, L2: 0.001, L1: 0.01}

// maxAbs is ‖v‖∞.
func maxAbs(v la.Vec) float64 {
	var m float64
	for _, x := range v {
		m = math.Max(m, math.Abs(x))
	}
	return m
}

// TestReferenceOptimumStopsOnTolerance pins the restart: on the wide sparse
// elastic net, where unrestarted FISTA oscillates into its 4000-iteration
// cap, the reference solve meets its own tolerance within 1000 iterations.
func TestReferenceOptimumStopsOnTolerance(t *testing.T) {
	lin := greedyCDObjective.Inner
	l2, l1 := greedyCDObjective.Penalties()
	for _, seed := range []int64{42, 7} {
		d, err := dataset.Generate(dataset.SparseWide(dataset.ScaleTiny, seed))
		if err != nil {
			t.Fatal(err)
		}
		lip := lin.Curvature()*powerLambdaMax(d.X)/float64(d.NumRows()) + l2
		if _, iters := proxGradient(d, lin, l2, l1, lip); iters > 1000 {
			t.Fatalf("seed %d: %d iterations, want ≤ 1000", seed, iters)
		}
	}
}

// TestPowerLambdaMaxIsSafe: the padded estimate bounds λmax(XᵀX) from
// above — exactly max a_j² on a diagonal design, and a long independent
// power iteration on the sparse catalog shapes.
func TestPowerLambdaMaxIsSafe(t *testing.T) {
	a := spreadDiag
	if got := powerLambdaMax(diagDataset(t, a, make([]float64, len(a))).X); got < 25 {
		t.Fatalf("diagonal design: estimate %v below λmax 25", got)
	}
	for _, mk := range []func(dataset.Scale, int64) dataset.SynthConfig{dataset.SparseWide, dataset.RCV1Like} {
		for _, seed := range []int64{42, 7} {
			cfg := mk(dataset.ScaleTiny, seed)
			d, err := dataset.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, ref := powerLambdaMax(d.X), gramNormBelow(d.X, 1000); got < ref {
				t.Fatalf("%s seed %d: estimate %v below %v", cfg.Name, seed, got, ref)
			}
		}
	}
}

// gramNormBelow runs iters steps of power iteration on XᵀX from a random
// start and returns the last ‖XᵀXv‖ (‖v‖ = 1), a lower bound on λmax(XᵀX).
func gramNormBelow(m *la.CSR, iters int) float64 {
	rng := rand.New(rand.NewSource(1))
	v := la.NewVec(m.NumCols)
	for j := range v {
		v[j] = rng.Float64()
	}
	la.Scale(1/la.Norm2(v), v)
	xv := la.NewVec(m.NumRows)
	var lam float64
	for range iters {
		m.MatVec(v, xv)
		m.MatTVec(xv, v)
		lam = la.Norm2(v)
		la.Scale(1/lam, v)
	}
	return lam
}

// BenchmarkReferenceOptimumFor times the composite reference solve (power
// iteration plus restarted FISTA) on sparse-wide tiny data.
func BenchmarkReferenceOptimumFor(b *testing.B) {
	d, err := dataset.Generate(dataset.SparseWide(dataset.ScaleTiny, 42))
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		if _, _, err := ReferenceOptimumFor(d, greedyCDObjective); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAcceptsGate is the capability gate's truth table at its source: what
// each registration declares decides, and the texts keep the phrases clients
// match on.
func TestAcceptsGate(t *testing.T) {
	l1 := Composite{Inner: LeastSquares{}, L1: 0.01}
	ridge := Composite{Inner: LeastSquares{}, L2: 0.1}
	for _, tc := range []struct {
		solver string
		loss   Loss
		mode   string
		want   string // "" = accepted
	}{
		{"asgd", l1, "", ""},
		{"cd", l1, "greedy", ""},
		{"gcg", Logistic{}, "", ""},
		{"admm", nil, "", ""},
		{"saga", l1, "", "no proximal step"},
		{"asaga-remote", l1, "", "asaga has no proximal step"}, // judged as the solver the alias runs
		{"admm", l1, "", "no proximal step"},
		{"admm", ridge, "", "ignores penalty terms"},
		{"admm", Logistic{}, "", "plain least squares only"},
		{"sgd", nil, "greedy", "no selection modes"},
		{"gcg", Logistic{}, "full", "no selection modes"},
		{"cd", nil, "full", "unknown mode"},
		{"not-built-in", l1, "bogus", ""}, // extensions answer for themselves
	} {
		err := Accepts(tc.solver, tc.loss, tc.mode)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s/%v/%q: refused: %v", tc.solver, tc.loss, tc.mode, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s/%v/%q: err = %v, want one mentioning %q", tc.solver, tc.loss, tc.mode, err, tc.want)
		}
	}
}
