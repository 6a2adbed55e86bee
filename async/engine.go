package async

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/opt"
	"repro/internal/rdd"
)

// Data is the distributed dataset handle Distribute returns: the base RDD
// of labelled points, with the usual transformations (Sample, Filter,
// Count, ...) available on it.
type Data = rdd.RDD[rdd.Point]

// Result bundles a solver run's convergence trace and final model.
type Result = opt.Result

// SolveOptions configures one Solve call: the shared opt.Params (step
// schedule, sampling rate, update budget, barrier override, ...), the
// structured composite Objective, the reference optimum FStar for error
// traces, and the per-family extension knobs. A nil Barrier inherits the
// engine's WithBarrier default.
type SolveOptions = opt.SolveConfig

// Objective is the structured composite-objective description:
// a named loss plus optional ℓ2 (ridge) and ℓ1 (sparsity) penalties.
// Set it on SolveOptions.Objective instead of constructing a Loss by hand;
// Solve resolves it before the solver runs.
type Objective = opt.ObjectiveSpec

// ErrClosed is returned by operations on a closed engine.
var ErrClosed = errors.New("async: engine is closed")

// ErrBusy is returned by Solve while another Solve is in flight: an engine
// has one coordinator queue, so concurrent runs would consume each other's
// task results. Run solves sequentially, or use one engine per run.
var ErrBusy = errors.New("async: engine is already running a solve")

// Engine owns the full ASYNC stack lifecycle: the cluster (local
// goroutines or TCP), the RDD dataflow context, and the Asynchronous
// Context (coordinator + scheduler + broadcaster). Create one with New,
// release it with Close.
type Engine struct {
	cfg config

	mu      sync.Mutex
	c       *cluster.Cluster
	closer  io.Closer
	rctx    *rdd.Context
	ac      *core.Context
	points  *Data
	data    *dataset.Dataset
	solving bool
	ran     bool // a Solve has run: the next one must ResetRun first
	closed  bool
}

// resetTimeout bounds how long a reused engine waits for the previous
// run's stray in-flight tasks before starting the next run.
const resetTimeout = 5 * time.Second

// New builds an engine from functional options and connects its transport
// (for TCP this blocks until all workers have dialled in).
func New(opts ...Option) (*Engine, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		if o == nil {
			continue
		}
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.partitions == 0 {
		cfg.partitions = 2 * cfg.workers
	}
	c, closer, err := cfg.transport.connect(cluster.Config{
		NumWorkers:  cfg.workers,
		Delay:       cfg.delay,
		Seed:        cfg.seed,
		MinTaskTime: cfg.minTask,
	})
	if err != nil {
		return nil, fmt.Errorf("async: connect transport: %w", err)
	}
	rctx := rdd.NewContext(c)
	ac := core.New(rctx)
	return &Engine{cfg: cfg, c: c, closer: closer, rctx: rctx, ac: ac}, nil
}

// Close tears the stack down in dependency order: coordinator, cluster,
// then the transport's listener. It is idempotent and safe to defer
// alongside explicit error-path closes.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	e.ac.Close()
	e.c.Shutdown()
	if e.closer != nil {
		return e.closer.Close()
	}
	return nil
}

// Distribute splits d across the engine's workers (WithPartitions blocks,
// round-robin placement, driver-side lineage roots for recovery) and
// returns the distributed handle. An engine holds one dataset at a time
// (Release swaps it); Solve calls use the handle automatically.
func (e *Engine) Distribute(d *dataset.Dataset) (*Data, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.distributeLocked(d)
}

func (e *Engine) distributeLocked(d *dataset.Dataset) (*Data, error) {
	if d == nil {
		return nil, errors.New("async: Distribute(nil)")
	}
	if e.closed {
		return nil, ErrClosed
	}
	if e.data != nil {
		if e.data == d {
			return e.points, nil
		}
		return nil, fmt.Errorf("async: engine already holds dataset %q; Release it before distributing %q", e.data.Name, d.Name)
	}
	points, err := e.rctx.Distribute(d, e.cfg.partitions)
	if err != nil {
		return nil, err
	}
	e.points = points
	e.data = d
	return points, nil
}

// Release drops the engine's held dataset: partition placement and
// driver-side lineage roots are cleared, so a subsequent Distribute (or
// Solve) may load a different dataset onto the same warm cluster instead of
// forcing engine churn. It fails with ErrBusy while a solve is in flight.
// Releasing an engine that holds nothing is a no-op.
func (e *Engine) Release() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if e.solving {
		return ErrBusy
	}
	if e.data == nil {
		return nil
	}
	e.rctx.Release()
	e.points = nil
	e.data = nil
	return nil
}

// Dataset returns the dataset the engine currently holds, nil before
// Distribute or after Release.
func (e *Engine) Dataset() *dataset.Dataset {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.data
}

// Solve runs the named registered solver on d, distributing it first if
// needed. ctx cancellation or deadline expiry is threaded through the AC,
// aborting barrier waits and result collection mid-run. A nil
// opts.Barrier inherits the engine's WithBarrier default. An engine runs
// one solve at a time: a Solve while another is in flight fails with
// ErrBusy (the runs would share one result queue).
func (e *Engine) Solve(ctx context.Context, algorithm string, d *dataset.Dataset, opts SolveOptions) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if d == nil {
		return nil, errors.New("async: Solve needs a dataset")
	}
	s, err := Lookup(algorithm)
	if err != nil {
		return nil, err
	}
	// resolve the structured objective here too (the builtin registry also
	// does, idempotently) so custom-registered solvers see Params.Loss set
	if err := opts.ApplyObjective(); err != nil {
		return nil, err
	}
	if opts.Barrier == nil {
		opts.Barrier = e.cfg.barrier
	}
	// distribute and claim the engine in one critical section: a Release
	// sneaking in between them would pull the placement out from under the
	// run (Release checks the solving flag under this same mutex)
	e.mu.Lock()
	if e.solving {
		e.mu.Unlock()
		return nil, ErrBusy
	}
	if _, err := e.distributeLocked(d); err != nil {
		e.mu.Unlock()
		return nil, err
	}
	e.solving = true
	reused := e.ran
	e.ran = true
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		e.solving = false
		e.mu.Unlock()
	}()
	if reused {
		// a fresh run must not inherit the previous run's logical clock
		// (which would consume its update budget), stray results, wait
		// statistics, or worker-local history
		if err := e.ac.ResetRun(resetTimeout); err != nil {
			return nil, fmt.Errorf("async: reset engine between runs: %w", err)
		}
	}
	return s.Solve(ctx, e, d, opts)
}

// Context exposes the underlying Asynchronous Context for drivers that use
// the raw Table-1 primitives (ASYNCbroadcast, ASYNCbarrier, ASYNCreduce,
// ASYNCcollect) directly.
func (e *Engine) Context() *core.Context { return e.ac }

// RDD exposes the dataflow context (broadcast store, partition placement,
// synchronous stage execution).
func (e *Engine) RDD() *rdd.Context { return e.rctx }

// Cluster exposes the worker pool (liveness, fetch counters).
func (e *Engine) Cluster() *cluster.Cluster { return e.c }

// Points returns the distributed dataset handle, nil before Distribute.
func (e *Engine) Points() *Data {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.points
}

// Workers reports the configured worker-pool size.
func (e *Engine) Workers() int { return e.cfg.workers }
