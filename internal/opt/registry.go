package opt

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/rdd"
)

// SolveConfig is the one parameter form of a run: the shared Params plus
// each solver family's own config. A solver reads Params and its own
// family; what a zero field means is said once, in the defaults method
// beside that solver (svrg.go, admm.go, cd.go, gcg.go).
type SolveConfig struct {
	Params

	// Objective, when non-zero, is the structured composite-objective
	// description; ApplyObjective resolves it into Params.Loss before the
	// solver runs (it wins over a directly-set Loss).
	Objective ObjectiveSpec

	// FStar is the reference optimum f(w*) used for error traces; 0 makes
	// traces report raw objective values.
	FStar float64

	VR   VRConfig
	ADMM ADMMConfig
	CD   CDConfig
	GCG  GCGConfig
}

// ApplyObjective resolves the structured Objective into Params.Loss.
// Idempotent; a zero Objective leaves Params.Loss untouched.
func (c *SolveConfig) ApplyObjective() error {
	if c.Objective.IsZero() {
		return nil
	}
	loss, err := c.Objective.Resolve()
	if err != nil {
		return err
	}
	c.Params.Loss = loss
	return nil
}

// SolveRequest is everything a registered solver runs against: the ASYNC
// context, the distributed base RDD (baselines that bypass the AC need
// it), the dataset, and the configuration.
type SolveRequest struct {
	AC     *core.Context
	Points *rdd.RDD[rdd.Point]
	Data   *dataset.Dataset
	Config SolveConfig
}

// Solver is the unified driver-algorithm interface behind the registry:
// every optimization method the engine runs — the paper's methods and any
// plugged-in extension — implements it. Solve must honour ctx: the
// registry wrappers bind it to the AC so barrier waits and collects abort
// on cancellation.
type Solver interface {
	Name() string
	Solve(ctx context.Context, req SolveRequest) (*Result, error)
}

// solverFunc is a built-in registration: the function that runs the method
// and what the method accepts. Solve checks the run against the latter and
// binds ctx to the AC around the call, so cancellation propagates into
// ASYNCbarrier and ASYNCcollect without each algorithm threading it.
type solverFunc struct {
	name string
	fn   func(ctx context.Context, req SolveRequest) (*Result, error)

	prox    bool     // has a proximal step, so honours an ℓ1 term exactly
	plainLS bool     // optimizes hardwired plain least squares, whatever the objective says
	modes   []string // selection modes, the first the default; nil for none
}

func (s solverFunc) Name() string { return s.name }

// accepts is the capability gate: it rejects an objective no worker could
// rebuild (wireObjective), one the solver would optimize as a different
// one, and a selection mode it does not have.
func (s solverFunc) accepts(loss Loss, mode string) error {
	if loss == nil {
		loss = LeastSquares{}
	}
	if _, err := wireObjective(loss); err != nil {
		return err
	}
	if !s.prox {
		if err := rejectL1(loss, s.name); err != nil {
			return err
		}
	}
	if _, isLS := loss.(LeastSquares); s.plainLS && !isLS {
		return fmt.Errorf("opt: %s optimizes plain least squares only: it ignores penalty terms and any other loss, so it cannot solve objective %q", s.name, loss.Name())
	}
	if mode == "" {
		return nil
	}
	if len(s.modes) == 0 {
		return fmt.Errorf("opt: %s has no selection modes, got mode %q", s.name, mode)
	}
	return checkMode(s.name, s.modes, &mode)
}

// checkMode resolves *mode against a solver's selection modes: empty picks
// the first, anything else must be one of them.
func checkMode(solver string, modes []string, mode *string) error {
	if *mode == "" {
		*mode = modes[0]
	}
	if !slices.Contains(modes, *mode) {
		return fmt.Errorf("opt: unknown mode %q for %s (known: %s)", *mode, solver, strings.Join(modes, ", "))
	}
	return nil
}

// Accepts reports whether the named solver can faithfully optimize loss
// under the selection mode mode ("" is the solver's default). It is the one
// gate both entry points apply: every registry run passes through it, and the
// jobs API calls it at submission. Names that are not built-in registrations
// (RegisterSolver extensions) pass; they answer for themselves at run time.
func Accepts(solver string, loss Loss, mode string) error {
	if s, err := LookupSolver(solver); err == nil {
		if sf, ok := s.(solverFunc); ok {
			return sf.accepts(loss, mode)
		}
	}
	return nil
}

func (s solverFunc) Solve(ctx context.Context, req SolveRequest) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg := &req.Config
	if err := cfg.ApplyObjective(); err != nil {
		return nil, err
	}
	// the selection mode rides CDConfig, the one family that has modes
	if err := s.accepts(cfg.Loss, cfg.CD.Mode); err != nil {
		return nil, err
	}
	if req.AC != nil {
		release := req.AC.Bind(ctx)
		defer release()
	}
	return s.fn(ctx, req)
}

var (
	solverMu sync.RWMutex
	solvers  = map[string]Solver{}
)

// RegisterSolver adds a solver under its lowercased name. Registering a
// duplicate name panics: solver names are package-level constants and a
// collision is a programming error.
func RegisterSolver(s Solver) {
	key := strings.ToLower(s.Name())
	solverMu.Lock()
	defer solverMu.Unlock()
	if _, dup := solvers[key]; dup {
		panic(fmt.Sprintf("opt: duplicate solver %q", key))
	}
	solvers[key] = s
}

// solverAliases maps deprecated names onto the solver that absorbed them.
// asgd and asaga dispatch registered ops on every transport, so their
// former TCP-only twins are just other spellings — kept resolvable because
// stored job specs, old checkpoints and the benchmark name them.
var solverAliases = map[string]string{
	"asgd-remote":  "asgd",
	"asaga-remote": "asaga",
}

// LookupSolver resolves a solver by name (case-insensitive; deprecated
// aliases resolve to their canonical solver, whose Name() says which).
func LookupSolver(name string) (Solver, error) {
	key := strings.ToLower(name)
	if canon, ok := solverAliases[key]; ok {
		key = canon
	}
	solverMu.RLock()
	s, ok := solvers[key]
	solverMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("opt: unknown solver %q (known: %s)",
			name, strings.Join(SolverNames(), ", "))
	}
	return s, nil
}

// SolverNames lists every registered solver name, sorted (aliases excluded).
func SolverNames() []string {
	solverMu.RLock()
	defer solverMu.RUnlock()
	out := make([]string, 0, len(solvers))
	for name := range solvers {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func init() {
	RegisterSolver(solverFunc{name: "sgd", prox: true, fn: func(_ context.Context, r SolveRequest) (*Result, error) {
		return SyncSGD(r.AC, r.Data, r.Config.Params, r.Config.FStar)
	}})
	RegisterSolver(solverFunc{name: "asgd", prox: true, fn: func(_ context.Context, r SolveRequest) (*Result, error) {
		return ASGD(r.AC, r.Data, r.Config.Params, r.Config.FStar)
	}})
	RegisterSolver(solverFunc{name: "saga", fn: func(_ context.Context, r SolveRequest) (*Result, error) {
		return SAGA(r.AC, r.Data, r.Config.Params, r.Config.FStar)
	}})
	RegisterSolver(solverFunc{name: "asaga", fn: func(_ context.Context, r SolveRequest) (*Result, error) {
		return ASAGA(r.AC, r.Data, r.Config.Params, r.Config.FStar)
	}})
	RegisterSolver(solverFunc{name: "svrg", fn: func(_ context.Context, r SolveRequest) (*Result, error) {
		return EpochVR(r.AC, r.Data, r.Config.Params, r.Config.VR, r.Config.FStar)
	}})
	RegisterSolver(solverFunc{name: "admm", plainLS: true, fn: func(_ context.Context, r SolveRequest) (*Result, error) {
		return ADMM(r.AC, r.Data, r.Config.Params, r.Config.ADMM, r.Config.FStar)
	}})
	RegisterSolver(solverFunc{name: "cd", prox: true, modes: cdModes, fn: func(_ context.Context, r SolveRequest) (*Result, error) {
		return CD(r.AC, r.Data, r.Config.Params, r.Config.CD, r.Config.FStar)
	}})
	RegisterSolver(solverFunc{name: "gcg", prox: true, fn: func(_ context.Context, r SolveRequest) (*Result, error) {
		return GCG(r.AC, r.Data, r.Config.Params, r.Config.GCG, r.Config.FStar)
	}})
	RegisterSolver(solverFunc{name: "mllib-sgd", fn: func(ctx context.Context, r SolveRequest) (*Result, error) {
		if r.Points == nil {
			return nil, fmt.Errorf("opt: mllib-sgd needs the distributed points RDD")
		}
		return MllibSGD(ctx, r.AC.RDD(), r.Points, r.Data, r.Config.Params, r.Config.FStar)
	}})
}
