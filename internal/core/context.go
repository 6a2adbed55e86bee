package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/rdd"
)

// Context is the Asynchronous Context (AC), the entry point to ASYNC (§5.1).
// Create it once per application on top of an rdd.Context; the
// ASYNCscheduler, ASYNCbroadcaster and ASYNCcoordinator communicate through
// it, and workers deposit results and attributes into its bookkeeping
// structures.
type Context struct {
	rctx  *rdd.Context
	coord *Coordinator
	sched *scheduler

	// bcastMemo backs ASYNCbroadcastStamped (per-run; cleared by ResetRun).
	bcastMu   sync.Mutex
	bcastMemo map[string]stampedBroadcast

	// updateHook observes every AdvanceClock (per-run; cleared by ResetRun).
	hookMu     sync.Mutex
	updateHook func(updates int64)

	// BarrierTimeout bounds ASYNCbarrier blocking (0 = default 30s).
	BarrierTimeout time.Duration
}

// New creates the ASYNC context over a driver context.
func New(rctx *rdd.Context) *Context {
	co := newCoordinator(rctx.Cluster())
	return &Context{rctx: rctx, coord: co, sched: &scheduler{coord: co}}
}

// RDD exposes the underlying driver context.
func (ac *Context) RDD() *rdd.Context { return ac.rctx }

// Coordinator exposes the ASYNCcoordinator (metrics access).
func (ac *Context) Coordinator() *Coordinator { return ac.coord }

// Close shuts down the coordinator loop (the cluster itself is owned by the
// caller).
func (ac *Context) Close() { ac.coord.Close() }

// Bind attaches a context.Context to the AC: while bound, cancellation or
// deadline expiry aborts ASYNCcollect/ASYNCcollectAll and ASYNCbarrier with
// the context's error, making long driver loops interruptible. The returned
// release function detaches the context and must be called when the run
// finishes (typically deferred); the AC is reusable afterwards.
func (ac *Context) Bind(ctx context.Context) (release func()) {
	return ac.coord.bindContext(ctx)
}

// resetRunOp clears worker-local per-run state; registered so the reset
// also crosses real transports (the op must exist in worker processes,
// which import this package through the facade).
const resetRunOp = "core.reset-run"

func init() {
	cluster.RegisterOp(resetRunOp, func(env *cluster.Env, _ *cluster.Task) (any, error) {
		env.StoreClear()
		return nil, nil
	})
}

// ResetRun prepares a reused engine for a fresh, independent run: it waits
// (bounded by timeout) for stray in-flight tasks of the previous run and
// discards their results, zeroes the logical update clock and per-run
// statistics, and clears worker-local run state (broadcast history tables,
// ADMM subproblem state) on every live worker. Without it a second solve
// on the same engine inherits the predecessor's clock — instantly
// exhausting its update budget — and its history. Call only between runs.
func (ac *Context) ResetRun(timeout time.Duration) error {
	if err := ac.coord.ResetRun(timeout); err != nil {
		return err
	}
	ac.bcastMu.Lock()
	ac.bcastMemo = nil // stamps restart with the zeroed clock
	ac.bcastMu.Unlock()
	ac.SetUpdateHook(nil) // a hook must not outlive its run
	c := ac.rctx.Cluster()
	router := c.Router()
	workers := c.AliveWorkers()
	ch := make(chan *cluster.Result, len(workers))
	pending := map[int64]bool{}
	for _, w := range workers {
		t := &cluster.Task{ID: c.NextTaskID(), Op: resetRunOp, Partition: -1}
		router.Route(t.ID, ch)
		if err := c.Submit(w, t); err != nil {
			router.Unroute(t.ID)
			continue // a worker that died since AliveWorkers holds no state worth clearing
		}
		pending[t.ID] = true
	}
	n := len(pending)
	deadline := time.After(timeout)
	for i := 0; i < n; i++ {
		select {
		case r := <-ch:
			delete(pending, r.TaskID)
		case <-deadline:
			// unroute the unacknowledged tasks so retries on a wedged
			// engine don't accumulate dead routes in the router
			for id := range pending {
				router.Unroute(id)
			}
			return fmt.Errorf("core: reset-run: %d/%d workers acknowledged before timeout", i, n)
		}
	}
	return nil
}

// STAT snapshots the worker status table (AC.STAT in Table 1).
func (ac *Context) STAT() Stat { return ac.coord.Stat() }

// HasNext reports whether a task result is waiting (AC.hasNext).
func (ac *Context) HasNext() bool { return ac.coord.HasNext() }

// Pending counts in-flight tasks.
func (ac *Context) Pending() int { return ac.coord.Pending() }

// SetUpdateHook registers fn to run synchronously (on the driver goroutine)
// after every AdvanceClock — the update-boundary hook. The driver runtime
// uses it to mark checkpoint cadence and preemption boundaries; monitors may
// use it to observe run progress without polling. nil unregisters; ResetRun
// clears it so a hook can never outlive its run.
func (ac *Context) SetUpdateHook(fn func(updates int64)) {
	ac.hookMu.Lock()
	ac.updateHook = fn
	ac.hookMu.Unlock()
}

// AdvanceClock increments the model-update logical clock; drivers call it
// once per parameter update so staleness bookkeeping is meaningful. The
// registered update hook (if any) runs after the increment, before return.
func (ac *Context) AdvanceClock() int64 {
	v := ac.coord.AdvanceClock()
	ac.hookMu.Lock()
	fn := ac.updateHook
	ac.hookMu.Unlock()
	if fn != nil {
		fn(v)
	}
	return v
}

// Updates reads the logical clock.
func (ac *Context) Updates() int64 { return ac.coord.Updates() }

// ASYNCcollect pops the oldest task result payload in FIFO order,
// blocking until one arrives.
func (ac *Context) ASYNCcollect() (any, error) {
	tr, err := ac.coord.Collect(0)
	if err != nil {
		return nil, err
	}
	return tr.Payload, nil
}

// ASYNCcollectAll pops the oldest task result together with its attributes
// (worker id, staleness, mini-batch size, timings).
func (ac *Context) ASYNCcollectAll() (TaskResult, error) {
	return ac.coord.Collect(0)
}

// ASYNCcollectTimeout is ASYNCcollectAll with a deadline: it fails if no
// result becomes available within the timeout (useful for drivers that
// interleave collection with other work).
func (ac *Context) ASYNCcollectTimeout(timeout time.Duration) (TaskResult, error) {
	return ac.coord.Collect(timeout)
}

// ASYNCbarrier blocks until the barrier predicate over STAT holds and at
// least one available worker passes the filter, then reserves those workers
// for dispatch. Pass nil filter to take every available worker. This is the
// ASYNCbarrier transformation of Table 1: the returned Selection is the
// "RDD of workers that satisfy f".
func (ac *Context) ASYNCbarrier(f BarrierFunc, filter WorkerFilter) (*Selection, error) {
	chosen, err := ac.sched.await(f, filter, ac.BarrierTimeout)
	if err != nil {
		return nil, err
	}
	return &Selection{Workers: chosen, ac: ac}, nil
}

// Kernel computes one worker's locally reduced partial over the partitions
// it owns. It returns the partial value and the number of samples
// processed (the mini-batch size recorded in the result attributes).
type Kernel func(env *cluster.Env, parts []int, seed int64) (value any, batch int, err error)

// ReducePayload wraps an ASYNCreduce partial for transport; the coordinator
// unwraps it when tagging attributes. Registered ops that participate in
// ASYNCreduceOp dispatch return it directly.
type ReducePayload struct {
	Val   any
	N     int
	Empty bool
}

// BatchSize implements BatchSized.
func (k ReducePayload) BatchSize() int { return k.N }

// ASYNCreduce is the ASYNCreduce action of Table 1 in its closure form:
// one task per selected worker runs k over the worker's partitions with a
// local (worker-side) reduction, and the call returns at once — results
// arrive in the AC queue as workers finish. It differs from Spark's reduce
// exactly as §5.1 describes (per-worker execution, immediate return). It
// returns the number of tasks actually dispatched; workers that died
// between selection and dispatch are skipped.
//
// This form is the in-process helper for code written straight against
// Table 1 — the examples, internal/experiments, ASYNCreduceRDD and
// ASYNCaggregate below. A closure cannot cross a real transport, so on a
// cluster with workers behind one it fails before dispatching anything.
// Solvers do not use it: every internal/opt solver dispatches a registered
// op with ASYNCreduceOp, which is what lets one solver run on any transport.
func (ac *Context) ASYNCreduce(sel *Selection, k Kernel) (int, error) {
	if sel == nil || sel.used {
		return 0, nil
	}
	if !ac.rctx.Cluster().InProcess() {
		sel.used = true
		ac.coord.release(sel.Workers)
		return 0, errors.New("core: ASYNCreduce takes a closure kernel, which cannot cross a real transport; dispatch a registered op with ASYNCreduceOp")
	}
	return ac.dispatch(sel, func(t *cluster.Task, _ int, parts []int) {
		t.SetFunc(func(env *cluster.Env, tk *cluster.Task) (any, error) {
			v, n, err := k(env, parts, tk.Seed)
			if err != nil {
				return nil, err
			}
			return ReducePayload{Val: v, N: n, Empty: n == 0 && v == nil}, nil
		})
	})
}

// ASYNCreduceOp is ASYNCreduce for code that must run on any transport —
// the form every solver uses: instead of a closure it dispatches a
// registered op (see cluster.RegisterOp) whose args are built per worker by
// argsFor. An in-process worker calls the registered function with the args
// value as is; over TCP the args cross the wire, so their type must be a
// codec builtin or registered with cluster.RegisterPayloadCodec. The op must
// return a ReducePayload. A task whose op errors on the worker produces no
// result; see ErrTaskFailed for when that ends the run.
func (ac *Context) ASYNCreduceOp(sel *Selection, op string, argsFor func(worker int, parts []int) any) (int, error) {
	if sel == nil || sel.used {
		return 0, nil
	}
	return ac.dispatch(sel, func(t *cluster.Task, w int, parts []int) {
		t.Op, t.Args = op, argsFor(w, parts)
	})
}

// dispatch submits one task per selected worker that owns partitions; fill
// supplies the task body (func or op) and everything else — id, sampling
// seed, dispatch clock, routing, in-flight bookkeeping — is shared. A task
// the transport cannot encode aborts the dispatch with that error: no
// worker is at fault, so skipping it like a dead one would spin the driver.
func (ac *Context) dispatch(sel *Selection, fill func(t *cluster.Task, worker int, parts []int)) (int, error) {
	sel.used = true
	c := ac.rctx.Cluster()
	router := c.Router()
	dispatched := 0
	for i, w := range sel.Workers {
		parts := ac.rctx.PartitionsOn(w)
		if len(parts) == 0 {
			ac.coord.release([]int{w})
			continue
		}
		t := &cluster.Task{
			ID:       c.NextTaskID(),
			Seed:     ac.coord.NextDispatchSeq()*1_000_003 + int64(w),
			Dispatch: ac.coord.Updates(),
		}
		fill(t, w, parts)
		router.Route(t.ID, ac.coord.results)
		ac.coord.noteDispatch(w, t.ID, t.Dispatch)
		if err := c.Submit(w, t); err != nil {
			ac.coord.undoDispatch(w, t.ID)
			router.Unroute(t.ID)
			if errors.Is(err, cluster.ErrNotEncodable) {
				ac.coord.release(sel.Workers[i:])
				return dispatched, fmt.Errorf("core: dispatch to worker %d: %w", w, err)
			}
			ac.coord.release([]int{w})
			continue
		}
		dispatched++
	}
	return dispatched, nil
}

// ASYNCreduceRDD runs the paper's Algorithm 2 dispatch chain over an RDD:
// each selected worker computes the RDD's lineage on its partitions
// (sample/map transformations included), reduces locally with combine, and
// submits the partial asynchronously. Top-level function because Go methods
// cannot introduce type parameters.
func ASYNCreduceRDD[T any](ac *Context, r *rdd.RDD[T], combine func(T, T) T, sel *Selection) (int, error) {
	compute := r.Compute()
	return ac.ASYNCreduce(sel, func(env *cluster.Env, parts []int, seed int64) (any, int, error) {
		var acc T
		seen := false
		n := 0
		for _, p := range parts {
			vals, err := compute(env, p, seed+int64(p))
			if err != nil {
				return nil, 0, err
			}
			for _, v := range vals {
				if !seen {
					acc, seen = v, true
				} else {
					acc = combine(acc, v)
				}
			}
			n += len(vals)
		}
		if !seen {
			return nil, 0, nil
		}
		return acc, n, nil
	})
}

// ASYNCaggregate is the aggregate flavour of Table 1: per-worker fold with
// a zero value and seqOp, combined locally with combOp across the worker's
// partitions, submitted asynchronously.
func ASYNCaggregate[T, U any](ac *Context, r *rdd.RDD[T], zero U, seqOp func(U, T) U, combOp func(U, U) U, sel *Selection) (int, error) {
	compute := r.Compute()
	return ac.ASYNCreduce(sel, func(env *cluster.Env, parts []int, seed int64) (any, int, error) {
		acc := zero
		n := 0
		for _, p := range parts {
			vals, err := compute(env, p, seed+int64(p))
			if err != nil {
				return nil, 0, err
			}
			local := zero
			for _, v := range vals {
				local = seqOp(local, v)
			}
			acc = combOp(acc, local)
			n += len(vals)
		}
		return acc, n, nil
	})
}
