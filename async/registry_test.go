package async_test

import (
	"context"
	"strings"
	"testing"

	"repro/async"
	"repro/internal/dataset"
	"repro/internal/opt"
)

// TestPaperAlgorithmsRegistered asserts every optimization method the
// paper evaluates is registered and resolvable by name.
func TestPaperAlgorithmsRegistered(t *testing.T) {
	want := []string{"sgd", "asgd", "saga", "asaga", "svrg", "admm"}
	names := map[string]bool{}
	for _, n := range async.Solvers() {
		names[n] = true
	}
	for _, n := range want {
		if !names[n] {
			t.Errorf("solver %q not listed (have: %s)", n, strings.Join(async.Solvers(), ", "))
		}
		s, err := async.Lookup(n)
		if err != nil {
			t.Errorf("Lookup(%q): %v", n, err)
			continue
		}
		if got := strings.ToLower(s.Name()); got != n {
			t.Errorf("Lookup(%q).Name() = %q", n, got)
		}
		// resolution is case-insensitive
		if _, err := async.Lookup(strings.ToUpper(n)); err != nil {
			t.Errorf("Lookup(%q): %v", strings.ToUpper(n), err)
		}
	}
	// the baseline rides along
	if _, err := async.Lookup("mllib-sgd"); err != nil {
		t.Errorf("Lookup(mllib-sgd): %v", err)
	}
	// the deprecated TCP-variant names resolve to the one solver per
	// method and are not listed as solvers of their own
	for alias, canon := range map[string]string{"asgd-remote": "asgd", "asaga-remote": "asaga"} {
		s, err := async.Lookup(alias)
		if err != nil {
			t.Errorf("Lookup(%q): %v", alias, err)
			continue
		}
		if s.Name() != canon {
			t.Errorf("Lookup(%q).Name() = %q, want %q", alias, s.Name(), canon)
		}
		if names[alias] {
			t.Errorf("alias %q listed by Solvers()", alias)
		}
	}
	if _, err := async.Lookup("nope"); err == nil {
		t.Error("unknown solver resolved")
	}
}

// TestEverySolverRuns drives each paper algorithm end-to-end on a tiny
// problem through the facade — the registry wrappers must produce working
// parameterizations from one shared SolveOptions.
func TestEverySolverRuns(t *testing.T) {
	d, err := dataset.Generate(dataset.EpsilonLike(dataset.ScaleTiny, 21))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sgd", "asgd", "saga", "asaga", "svrg", "admm", "cd", "mllib-sgd"} {
		t.Run(name, func(t *testing.T) {
			eng, err := async.New(async.WithWorkers(2), async.WithSeed(23), async.WithPartitions(4))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			res, err := eng.Solve(context.Background(), name, d, async.SolveOptions{
				Params: opt.Params{
					Step:          opt.Constant{A: 0.001},
					SampleFrac:    0.5,
					Updates:       12,
					SnapshotEvery: 4,
				},
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Trace == nil || len(res.W) != d.NumCols() {
				t.Fatalf("%s: malformed result", name)
			}
		})
	}
}

// stubSolver exercises the public plug-in path.
type stubSolver struct{ calls int }

func (s *stubSolver) Name() string { return "stub-method" }

func (s *stubSolver) Solve(_ context.Context, _ *async.Engine, _ *dataset.Dataset, _ async.SolveOptions) (*async.Result, error) {
	s.calls++
	return &async.Result{}, nil
}

func TestRegisterCustomSolver(t *testing.T) {
	st := &stubSolver{}
	if err := async.Register(st); err != nil {
		t.Fatal(err)
	}
	if err := async.Register(&stubSolver{}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := async.Register(nil); err == nil {
		t.Fatal("nil registration accepted")
	}
	eng, err := async.New(async.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	d, err := dataset.Generate(dataset.EpsilonLike(dataset.ScaleTiny, 25))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Solve(context.Background(), "Stub-Method", d, async.SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	if st.calls != 1 {
		t.Fatalf("stub called %d times", st.calls)
	}
}

// TestRegisterCollidesWithBuiltin asserts a public registration cannot
// shadow a built-in solver name.
func TestRegisterCollidesWithBuiltin(t *testing.T) {
	if err := async.Register(builtinShadow{}); err == nil {
		t.Fatal("registration shadowing built-in \"asgd\" accepted")
	}
}

type builtinShadow struct{}

func (builtinShadow) Name() string { return "ASGD" }

func (builtinShadow) Solve(context.Context, *async.Engine, *dataset.Dataset, async.SolveOptions) (*async.Result, error) {
	return nil, nil
}
