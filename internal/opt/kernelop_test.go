package opt

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/la"
)

// samePayload compares two kernel payloads bit for bit.
func samePayload(a, b any) bool {
	sameDelta := func(x, y *la.DeltaVec) bool {
		return x.N == y.N && slices.Equal(x.Idx, y.Idx) && la.Equal(x.Val, y.Val, 0)
	}
	switch x := a.(type) {
	case la.Vec:
		y, ok := b.(la.Vec)
		return ok && la.Equal(x, y, 0)
	case *la.DeltaVec:
		y, ok := b.(*la.DeltaVec)
		return ok && sameDelta(x, y)
	default:
		return false
	}
}

// TestKernelOpMatchesClosure: the registered op, given the args the drivers
// build, computes exactly what the closure kernel computes from the driver's
// own Loss value — for every loss shape the wire can name, on the dense and
// the sparse task path, for both kernels. This is what lets one task form
// serve every transport without moving a single pinned trajectory.
func TestKernelOpMatchesClosure(t *testing.T) {
	losses := []Loss{
		LeastSquares{},
		Logistic{},
		Composite{Inner: LeastSquares{}, L2: 0.1},
		Composite{Inner: Logistic{}, L2: 0.03},
		Composite{Inner: LeastSquares{}, L2: 0.05, L1: 0.02},
		Composite{Inner: Logistic{}, L1: 0.02},
	}
	envs := map[string]func() (*cluster.Env, []int){
		"dense": func() (*cluster.Env, []int) {
			env, idx, _, _ := benchEnv(t, 300, 60, 2)
			return env, idx
		},
		"sparse": func() (*cluster.Env, []int) {
			env, idx, _ := sparseKernelEnv(t)
			return env, idx
		},
	}
	kernels := map[string]func(Loss, core.DynBroadcast, float64) core.Kernel{
		GradOpName: GradKernel,
		SagaOpName: SagaKernel,
	}
	br := core.DynBroadcast{ID: "w", Version: 1}
	const frac = 0.25
	for envName, mkEnv := range envs {
		for opName, build := range kernels {
			op, err := cluster.LookupOp(opName)
			if err != nil {
				t.Fatal(err)
			}
			for _, loss := range losses {
				obj, err := wireObjective(loss)
				if err != nil {
					t.Fatalf("%s: %v", loss.Name(), err)
				}
				// separate environments: the saga kernel records history
				envA, idx := mkEnv()
				envB, _ := mkEnv()
				for seed := int64(1); seed <= 3; seed++ {
					want, n, err := build(loss, br, frac)(envA, idx, seed)
					if err != nil {
						t.Fatal(err)
					}
					out, err := op(envB, &cluster.Task{Seed: seed, Args: GradOpArgs{
						BroadcastID: br.ID, Version: br.Version, Frac: frac, Parts: idx,
						Loss: obj.Loss, L2: obj.L2, L1: obj.L1,
					}})
					if err != nil {
						t.Fatal(err)
					}
					got := out.(core.ReducePayload)
					if n == 0 || got.N != n || !samePayload(want, got.Val) {
						t.Fatalf("%s/%s/%s seed %d: op payload (%T, n=%d) != closure payload (%T, n=%d)",
							envName, opName, loss.Name(), seed, got.Val, got.N, want, n)
					}
				}
			}
		}
	}
}

// TestKernelOpValidatesArgs: args can arrive over a wire, so the op — not
// just the driver — refuses a bad sampling rate, an unknown loss, a negative
// penalty, and args of the wrong type.
func TestKernelOpValidatesArgs(t *testing.T) {
	env, idx, _, _ := benchEnv(t, 50, 30, 1)
	op, err := cluster.LookupOp(GradOpName)
	if err != nil {
		t.Fatal(err)
	}
	good := GradOpArgs{BroadcastID: "w", Version: 1, Frac: 0.5, Parts: idx}
	for name, args := range map[string]any{
		"zero frac":    func() GradOpArgs { a := good; a.Frac = 0; return a }(),
		"unknown loss": func() GradOpArgs { a := good; a.Loss = "hinge"; return a }(),
		"negative l2":  func() GradOpArgs { a := good; a.L2 = -1; return a }(),
		"wrong type":   "args",
	} {
		if _, err := op(env, &cluster.Task{Seed: 1, Args: args}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := op(env, &cluster.Task{Seed: 1, Args: good}); err != nil {
		t.Fatalf("valid args refused: %v", err)
	}
}

// unnamedLoss is a linear loss outside the family an ObjectiveSpec names.
type unnamedLoss struct{ LeastSquares }

func (unnamedLoss) Name() string { return "unnamed" }

// TestKernelSolversRejectUnnameableLoss: the solvers that take a Loss ship it
// by name, so one outside the nameable family fails at the driver before any
// task — never as a silently different objective on the workers.
func TestKernelSolversRejectUnnameableLoss(t *testing.T) {
	r := newRig(t, 1, 1, nil)
	solvers := map[string]func(Params) (*Result, error){
		"sgd":   func(p Params) (*Result, error) { return SyncSGD(r.ac, r.d, p, 0) },
		"asgd":  func(p Params) (*Result, error) { return ASGD(r.ac, r.d, p, 0) },
		"saga":  func(p Params) (*Result, error) { return SAGA(r.ac, r.d, p, 0) },
		"asaga": func(p Params) (*Result, error) { return ASAGA(r.ac, r.d, p, 0) },
		"svrg": func(p Params) (*Result, error) {
			return EpochVR(r.ac, r.d, p, VRConfig{Epochs: 1, UpdatesPerEpoch: 1}, 0)
		},
		"cd":  func(p Params) (*Result, error) { return CD(r.ac, r.d, p, CDConfig{}, 0) },
		"gcg": func(p Params) (*Result, error) { return GCG(r.ac, r.d, p, GCGConfig{}, 0) },
	}
	for _, loss := range []Loss{
		unnamedLoss{},
		Composite{Inner: unnamedLoss{}, L2: 0.1},
		Composite{Inner: Composite{Inner: LeastSquares{}, L2: 0.1}, L2: 0.1},
	} {
		for name, solve := range solvers {
			if _, err := solve(Params{Loss: loss, Step: Constant{A: 0.01}, SampleFrac: 0.5, Updates: 1}); err == nil {
				t.Errorf("%s accepted loss %q it cannot name to a worker", name, loss.Name())
			}
		}
	}
	if st := r.ac.STAT(); st.Pending != 0 {
		t.Fatalf("a refused run dispatched %d tasks", st.Pending)
	}
}

// TestEverySolverRefusesABadPenalty: a hand-built Composite whose penalty
// ObjectiveSpec validation refuses (negative or NaN) is refused in the one
// place that check lives, by every registry solver — at the capability gate
// and through Solve — and by kernelDispatch, the entry every AC-based
// solver's direct form passes; no task is dispatched.
func TestEverySolverRefusesABadPenalty(t *testing.T) {
	r := newRig(t, 1, 2, nil)
	const want = "must be finite and non-negative"
	nan := math.NaN()
	for _, loss := range []Composite{
		{Inner: LeastSquares{}, L2: -1},
		{Inner: LeastSquares{}, L2: nan},
		{Inner: Logistic{}, L1: -1},
		{Inner: Logistic{}, L1: nan},
	} {
		for _, name := range SolverNames() {
			if err := Accepts(name, loss, ""); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("Accepts(%s, l2=%v l1=%v) = %v, want %q", name, loss.L2, loss.L1, err, want)
			}
			s, err := LookupSolver(name)
			if err != nil {
				t.Fatal(err)
			}
			req := SolveRequest{AC: r.ac, Points: r.points, Data: r.d, Config: SolveConfig{Params: Params{
				Loss: loss, Step: Constant{A: 0.01}, SampleFrac: 0.5, Updates: 1,
			}}}
			if _, err := s.Solve(context.Background(), req); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s.Solve(l2=%v l1=%v) = %v, want %q", name, loss.L2, loss.L1, err, want)
			}
		}
		for _, op := range []string{GradOpName, SagaOpName, vrOpName, vrFillOpName, cdOpName} {
			if _, err := kernelDispatch(r.ac, op, loss, 0.5, nil); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("kernelDispatch(%s, l2=%v l1=%v) = %v, want %q", op, loss.L2, loss.L1, err, want)
			}
		}
	}
	if st := r.ac.STAT(); st.Pending != 0 {
		t.Fatalf("a refused run dispatched %d tasks", st.Pending)
	}
}
