package opt

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/rdd"
)

// SolveConfig is the algorithm-independent run configuration the solver
// registry accepts: the shared Params plus the per-family extensions the
// epoch, consensus and coordinate methods need. Zero values for an
// extension mean "use that solver's defaults".
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
	BCD  BCDConfig
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

// VRConfig carries the epoch structure for variance-reduced solvers
// (svrg). Zero Epochs defaults to 3; zero UpdatesPerEpoch spreads
// Params.Updates evenly across the epochs.
type VRConfig struct {
	Epochs          int
	UpdatesPerEpoch int
}

// ADMMConfig carries the consensus-solver knobs; Params.Updates is the
// round budget and Params.SnapshotEvery the trace resolution.
type ADMMConfig struct {
	Rho     float64
	CGTol   float64
	CGIters int
}

// BCDConfig carries the block-coordinate knobs; zero BlockSize picks
// min(32, cols) and zero Step the full diagonal-Newton step.
type BCDConfig struct {
	BlockSize int
	Step      float64
	Seed      int64
}

// CDConfig carries the proximal coordinate-descent knobs; zero BlockSize
// picks min(32, cols), empty Mode is "cyclic", zero Step the full
// preconditioned prox step.
type CDConfig struct {
	BlockSize int
	Mode      string
	Step      float64
	Seed      int64
}

// GCGConfig carries the generalized-CG knobs; zero RestartEvery restarts
// every 20 updates. Mode "greedy" switches to MaxIP atom selection with
// Atoms coordinates per round (zero picks min(32, cols)); empty Mode is
// the full-gradient conjugate solver.
type GCGConfig struct {
	RestartEvery int
	Mode         string
	Atoms        int
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

// solverFunc adapts a plain function to Solver, binding ctx to the AC
// around the call so cancellation propagates into ASYNCbarrier and
// ASYNCcollect without each algorithm having to thread it manually.
type solverFunc struct {
	name string
	fn   func(ctx context.Context, req SolveRequest) (*Result, error)
}

func (s solverFunc) Name() string { return s.name }

// proxCapable names the built-in solvers with a proximal step — the only
// ones that can honour an ℓ1 term exactly.
var proxCapable = map[string]bool{"sgd": true, "asgd": true, "cd": true, "gcg": true}

func (s solverFunc) Solve(ctx context.Context, req SolveRequest) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := req.Config.ApplyObjective(); err != nil {
		return nil, err
	}
	if l1Of(req.Config.Loss) > 0 && !proxCapable[s.name] {
		return nil, rejectL1(req.Config.Loss, s.name)
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
	RegisterSolver(solverFunc{"sgd", func(_ context.Context, r SolveRequest) (*Result, error) {
		return SyncSGD(r.AC, r.Data, r.Config.Params, r.Config.FStar)
	}})
	RegisterSolver(solverFunc{"asgd", func(_ context.Context, r SolveRequest) (*Result, error) {
		return ASGD(r.AC, r.Data, r.Config.Params, r.Config.FStar)
	}})
	RegisterSolver(solverFunc{"saga", func(_ context.Context, r SolveRequest) (*Result, error) {
		return SAGA(r.AC, r.Data, r.Config.Params, r.Config.FStar)
	}})
	RegisterSolver(solverFunc{"asaga", func(_ context.Context, r SolveRequest) (*Result, error) {
		return ASAGA(r.AC, r.Data, r.Config.Params, r.Config.FStar)
	}})
	RegisterSolver(solverFunc{"svrg", solveSVRG})
	RegisterSolver(solverFunc{"admm", solveADMM})
	RegisterSolver(solverFunc{"bcd", solveBCD})
	RegisterSolver(solverFunc{"cd", solveCD})
	RegisterSolver(solverFunc{"gcg", solveGCG})
	RegisterSolver(solverFunc{"mllib-sgd", solveMllibSGD})
}

func solveSVRG(_ context.Context, r SolveRequest) (*Result, error) {
	cfg := r.Config
	vp := VRParams{
		Params:          cfg.Params,
		Epochs:          cfg.VR.Epochs,
		UpdatesPerEpoch: cfg.VR.UpdatesPerEpoch,
	}
	if vp.Epochs <= 0 {
		vp.Epochs = 3
	}
	if vp.UpdatesPerEpoch <= 0 {
		vp.UpdatesPerEpoch = cfg.Updates / vp.Epochs
		if vp.UpdatesPerEpoch < 1 {
			vp.UpdatesPerEpoch = 1
		}
	}
	return EpochVR(r.AC, r.Data, vp, cfg.FStar)
}

func solveADMM(_ context.Context, r SolveRequest) (*Result, error) {
	cfg := r.Config
	return ADMM(r.AC, r.Data, ADMMParams{
		Rho:             cfg.ADMM.Rho,
		Rounds:          cfg.Updates,
		CGTol:           cfg.ADMM.CGTol,
		CGIters:         cfg.ADMM.CGIters,
		Barrier:         cfg.Barrier,
		Filter:          cfg.Filter,
		Snapshot:        cfg.SnapshotEvery,
		OnProgress:      cfg.OnProgress,
		CheckpointEvery: cfg.CheckpointEvery,
		OnCheckpoint:    cfg.OnCheckpoint,
		Preempt:         cfg.Preempt,
		Resume:          cfg.Resume,
	}, cfg.FStar)
}

func solveBCD(_ context.Context, r SolveRequest) (*Result, error) {
	cfg := r.Config
	bp := BCDParams{
		BlockSize:       cfg.BCD.BlockSize,
		Step:            cfg.BCD.Step,
		Updates:         cfg.Updates,
		Barrier:         cfg.Barrier,
		Filter:          cfg.Filter,
		Snapshot:        cfg.SnapshotEvery,
		Seed:            cfg.BCD.Seed,
		OnProgress:      cfg.OnProgress,
		CheckpointEvery: cfg.CheckpointEvery,
		OnCheckpoint:    cfg.OnCheckpoint,
		Preempt:         cfg.Preempt,
		Resume:          cfg.Resume,
	}
	if bp.BlockSize <= 0 {
		bp.BlockSize = 32
		if cols := r.Data.NumCols(); cols < bp.BlockSize {
			bp.BlockSize = cols
		}
	}
	if bp.Step <= 0 {
		bp.Step = 1
	}
	return AsyncBCD(r.AC, r.Data, bp, cfg.FStar)
}

func solveCD(_ context.Context, r SolveRequest) (*Result, error) {
	cfg := r.Config
	cp := CDParams{
		Params:    cfg.Params,
		BlockSize: cfg.CD.BlockSize,
		Mode:      cfg.CD.Mode,
		DampStep:  cfg.CD.Step,
		Seed:      cfg.CD.Seed,
	}
	return CD(r.AC, r.Data, cp, cfg.FStar)
}

func solveGCG(_ context.Context, r SolveRequest) (*Result, error) {
	cfg := r.Config
	gp := GCGParams{
		Params:       cfg.Params,
		RestartEvery: cfg.GCG.RestartEvery,
		Mode:         cfg.GCG.Mode,
		Atoms:        cfg.GCG.Atoms,
	}
	return GCG(r.AC, r.Data, gp, cfg.FStar)
}

func solveMllibSGD(ctx context.Context, r SolveRequest) (*Result, error) {
	if r.Points == nil {
		return nil, fmt.Errorf("opt: mllib-sgd needs the distributed points RDD")
	}
	return MllibSGDCtx(ctx, r.AC.RDD(), r.Points, r.Data, r.Config.Params, r.Config.FStar)
}
