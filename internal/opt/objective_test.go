package opt

import (
	"math"
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

	// objectives without a usable smooth core are refused, not mis-solved
	if _, _, err := ReferenceOptimumFor(d, Composite{Inner: badLoss{}, L1: 0.1}); err == nil {
		t.Fatal("reference solve accepted an objective without a linear core")
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
