package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
)

// ErrNoWorkers is returned when a barrier can never be satisfied because no
// live workers remain.
var ErrNoWorkers = errors.New("core: no live workers")

// ErrBarrierTimeout is returned when a barrier predicate stays false past
// the configured timeout.
var ErrBarrierTimeout = errors.New("core: barrier timed out")

// ErrTaskFailed marks a run ended by the task-failure rule. A task that
// errors on its worker (op error or panic, undecodable args, refused patch)
// yields no result; the worker becomes available again and the driver's next
// cycle hands it a fresh task — the re-dispatch. Once every live worker's
// task has failed and been re-dispatched maxTaskRetries times over with no
// task succeeding in between, the next failure ends the run: Collect and
// ASYNCbarrier return an error wrapping ErrTaskFailed with that worker's
// message, until ResetRun. Such a failure is taken as deterministic, and
// supervising layers do not retry it.
//
// The count is run-wide so that the one failure that is a matter of timing
// stays harmless: a slow worker asking for a model version the driver has
// pruned meanwhile. That can only happen after other tasks succeeded, so at
// most one such failure per worker piles up between two successes. A lone
// failing worker among healthy ones is passed over, as a dead one is.
var ErrTaskFailed = errors.New("core: task failed")

// maxTaskRetries is the k of the rule above.
const maxTaskRetries = 2

// workerState is the coordinator's internal per-worker record.
type workerState struct {
	alive      bool
	available  bool
	dispatch   int64 // logical clock when current/last task was dispatched
	dispatchAt time.Time
	lastStale  int64 // staleness of the last completed task
	totalTime  time.Duration
	completed  int64
	inflight   int64 // task id in flight (0 = none)
}

// Coordinator is the ASYNCcoordinator (§4.2): it consumes worker results,
// tags them with worker attributes, maintains the STAT table and the FIFO
// result queue, and wakes barrier waiters when the system state changes.
type Coordinator struct {
	c *cluster.Cluster

	mu      sync.Mutex
	cond    *sync.Cond
	workers map[int]*workerState
	queue   []TaskResult
	updates int64
	// dispatchSeq numbers dispatched tasks within a run; the reduce
	// transformations derive task sampling seeds from it, so a run's seed
	// stream depends only on its own dispatch history — resumable via
	// SetDispatchSeq, unlike the cluster-global task-id counter.
	dispatchSeq int64
	pending     int
	closed      bool

	results chan *cluster.Result
	done    chan struct{}

	// ctxErr is set (under mu) when a bound context.Context is cancelled;
	// Collect and barrier waits observe it and fail fast. ctxGen guards
	// against a stale watcher goroutine clobbering a newer binding.
	ctxErr error
	ctxGen int64

	// failures counts failed tasks since the last one that succeeded;
	// taskErr is set when they exhaust the retry rule (see ErrTaskFailed).
	// lastFailure names the run's last failed task, so a Collect that a
	// tolerated failure left with nothing to wait for can say why.
	failures    int
	taskErr     error
	lastFailure string

	// waitSamples accumulate the per-worker wait-time metric (Fig. 4/6).
	waitTotal map[int]time.Duration
	waitCount map[int]int64

	// staleHist counts collected results by staleness value — the
	// distribution staleness-aware methods reason about.
	staleHist map[int64]int64
}

// newCoordinator starts the coordinator loop over the cluster's router.
func newCoordinator(c *cluster.Cluster) *Coordinator {
	co := &Coordinator{
		c:         c,
		workers:   map[int]*workerState{},
		results:   make(chan *cluster.Result, 4096),
		done:      make(chan struct{}),
		waitTotal: map[int]time.Duration{},
		waitCount: map[int]int64{},
		staleHist: map[int64]int64{},
	}
	co.cond = sync.NewCond(&co.mu)
	for _, w := range c.AliveWorkers() {
		co.workers[w] = &workerState{alive: true, available: true}
	}
	go co.loop()
	return co
}

// loop consumes routed results and runs the liveness sweeper.
func (co *Coordinator) loop() {
	liveness := time.NewTicker(50 * time.Millisecond)
	defer liveness.Stop()
	for {
		select {
		case <-co.done:
			return
		case r := <-co.results:
			co.ingest(r)
		case <-liveness.C:
			co.sweep()
		}
	}
}

// ingest tags a result with worker attributes and appends it to the queue.
func (co *Coordinator) ingest(r *cluster.Result) {
	co.mu.Lock()
	defer co.mu.Unlock()
	ws := co.workers[r.Worker]
	if ws == nil {
		return
	}
	staleness := co.updates - r.Dispatch
	if staleness < 0 {
		// a task dispatched before a ResetRun zeroed the clock (ResetRun
		// fails unless the previous run fully drained, so this task belongs
		// to the current run's dataset); only its staleness value is stale
		staleness = 0
	}
	ws.available = true
	ws.inflight = 0
	ws.lastStale = staleness
	ws.totalTime += r.ComputeTime
	ws.completed++
	co.pending--
	co.waitTotal[r.Worker] += r.WaitTime
	co.waitCount[r.Worker]++
	co.staleHist[staleness]++
	mResultsIngested.Inc()
	mStaleness.Observe(float64(staleness))
	mTaskWait.ObserveDuration(r.WaitTime)
	mTaskCompute.ObserveDuration(r.ComputeTime)
	if !ws.dispatchAt.IsZero() {
		mDispatchRoundtrip.ObserveSince(ws.dispatchAt)
	}
	if r.Failed() {
		co.lastFailure = fmt.Sprintf("worker %d: %s", r.Worker, r.Err)
		if co.failures++; co.failures > maxTaskRetries*co.statLocked().AliveWorkers && co.taskErr == nil {
			co.taskErr = fmt.Errorf("%w on worker %d (%d failures in a row): %s", ErrTaskFailed, r.Worker, co.failures, r.Err)
		}
	} else {
		co.failures = 0
		attrs := Attrs{
			Worker:    r.Worker,
			Staleness: staleness,
			Iteration: r.Dispatch,
			Compute:   r.ComputeTime,
			Wait:      r.WaitTime,
		}
		payload := r.Payload
		skip := false
		if kp, ok := payload.(ReducePayload); ok {
			// unwrap ASYNCreduce partials; empty partials (a sample that
			// selected zero rows) produce no queue entry
			payload = kp.Val
			attrs.MiniBatch = kp.N
			skip = kp.Empty
		} else if b, ok := payload.(BatchSized); ok {
			attrs.MiniBatch = b.BatchSize()
		}
		if !skip {
			co.queue = append(co.queue, TaskResult{Payload: payload, Attrs: attrs})
		}
	}
	co.cond.Broadcast()
}

// sweep reconciles the worker table with cluster liveness: dead workers are
// marked and their in-flight slots released (so barriers and pending counts
// cannot hang on a crash), and live workers the table does not list yet are
// added and become schedulable.
func (co *Coordinator) sweep() {
	alive := co.c.AliveWorkers()
	co.mu.Lock()
	defer co.mu.Unlock()
	changed := false
	liveSet := make(map[int]bool, len(alive))
	for _, w := range alive {
		liveSet[w] = true
		if co.workers[w] == nil {
			co.workers[w] = &workerState{alive: true, available: true}
			changed = true
		}
	}
	for w, ws := range co.workers {
		if ws.alive && !liveSet[w] {
			ws.alive = false
			ws.available = false
			if ws.inflight != 0 {
				ws.inflight = 0
				co.pending--
			}
			changed = true
		}
	}
	if changed {
		co.cond.Broadcast()
	}
}

// Drain waits, bounded by timeout, until no task is in flight, discarding
// every result queued meanwhile and at return, so the result queue is
// empty for what comes next. It fails if tasks are still in flight at the
// deadline.
func (co *Coordinator) Drain(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		co.mu.Lock()
		co.cond.Broadcast()
		co.mu.Unlock()
	})
	defer timer.Stop()
	co.mu.Lock()
	defer co.mu.Unlock()
	for co.pending > 0 && !co.closed && time.Now().Before(deadline) {
		co.cond.Wait()
	}
	co.queue = nil
	if co.pending > 0 && !co.closed {
		return fmt.Errorf("%d tasks still in flight after %v", co.pending, timeout)
	}
	return nil
}

// ResetRun clears per-run coordinator state between solves on a reused
// engine: the logical update clock, undelivered results, wait and
// staleness statistics, and per-worker dispatch bookkeeping. It first
// drains the previous run's in-flight tasks, discarding their results — an
// aborted run skips its drain, and its strays must not leak into the next
// run's result queue. If stragglers are still in flight at the deadline it
// fails: their eventual results would be computed against the previous
// run's (possibly different) dataset, so starting the next run would
// silently corrupt it. Call only while no solve is active.
func (co *Coordinator) ResetRun(timeout time.Duration) error {
	if err := co.Drain(timeout); err != nil {
		return fmt.Errorf("core: reset-run: previous run: %w", err)
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	co.updates = 0
	co.dispatchSeq = 0
	co.failures, co.taskErr, co.lastFailure = 0, nil, ""
	co.waitTotal = map[int]time.Duration{}
	co.waitCount = map[int]int64{}
	co.staleHist = map[int64]int64{}
	for _, ws := range co.workers {
		ws.dispatch = 0
		ws.lastStale = 0
		// task-time averages feed MaxAvgTaskTime filters: the next run's
		// barrier decisions must not see the previous dataset's timings
		ws.totalTime = 0
		ws.completed = 0
	}
	return nil
}

// StalenessHistogram snapshots the distribution of result staleness values
// observed so far (staleness → count).
func (co *Coordinator) StalenessHistogram() map[int64]int64 {
	co.mu.Lock()
	defer co.mu.Unlock()
	out := make(map[int64]int64, len(co.staleHist))
	for k, v := range co.staleHist {
		out[k] = v
	}
	return out
}

// noteDispatch records that a task is about to be sent to a worker. It MUST
// run before the actual Submit: a fast worker's result can otherwise be
// ingested before the dispatch is recorded, leaving a phantom in-flight
// entry that blocks BSP/SSP barriers forever.
func (co *Coordinator) noteDispatch(worker int, taskID, clock int64) {
	co.mu.Lock()
	defer co.mu.Unlock()
	ws := co.workers[worker]
	if ws == nil {
		return
	}
	ws.available = false
	ws.dispatch = clock
	ws.dispatchAt = time.Now()
	ws.inflight = taskID
	co.pending++
	mTasksDispatched.Inc()
	co.cond.Broadcast()
}

// undoDispatch rolls back a noteDispatch whose Submit failed.
func (co *Coordinator) undoDispatch(worker int, taskID int64) {
	co.mu.Lock()
	defer co.mu.Unlock()
	ws := co.workers[worker]
	if ws == nil {
		return
	}
	if ws.inflight == taskID {
		ws.inflight = 0
		co.pending--
	}
	co.cond.Broadcast()
}

// release undoes a reservation that was never dispatched.
func (co *Coordinator) release(workers []int) {
	co.mu.Lock()
	defer co.mu.Unlock()
	for _, w := range workers {
		if ws := co.workers[w]; ws != nil && ws.inflight == 0 && ws.alive {
			ws.available = true
		}
	}
	co.cond.Broadcast()
}

// statLocked builds the Stat snapshot; callers hold co.mu.
func (co *Coordinator) statLocked() Stat {
	s := Stat{Updates: co.updates, Pending: co.pending}
	for w, ws := range co.workers {
		stale := ws.lastStale
		if ws.inflight != 0 {
			stale = co.updates - ws.dispatch
		}
		row := WorkerStat{
			Worker:         w,
			Alive:          ws.alive,
			Available:      ws.available,
			Staleness:      stale,
			TasksCompleted: ws.completed,
		}
		if ws.completed > 0 {
			row.AvgTaskTime = ws.totalTime / time.Duration(ws.completed)
		}
		s.Workers = append(s.Workers, row)
		if ws.alive {
			s.AliveWorkers++
			if ws.available {
				s.AvailableWorkers++
			}
			// only in-flight work counts toward MaxStaleness: an idle
			// worker holds no stale computation, so SSP must not block
			// on its last completed task forever
			if ws.inflight != 0 && stale > s.MaxStaleness {
				s.MaxStaleness = stale
			}
		}
	}
	// deterministic order for callers that index by position
	for i := 1; i < len(s.Workers); i++ {
		for j := i; j > 0 && s.Workers[j].Worker < s.Workers[j-1].Worker; j-- {
			s.Workers[j], s.Workers[j-1] = s.Workers[j-1], s.Workers[j]
		}
	}
	return s
}

// Stat snapshots the STAT table.
func (co *Coordinator) Stat() Stat {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.statLocked()
}

// AdvanceClock increments the server's logical update clock: call it once
// per model-parameter update.
func (co *Coordinator) AdvanceClock() int64 {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.updates++
	mClockAdvances.Inc()
	co.cond.Broadcast()
	return co.updates
}

// Updates reads the logical clock.
func (co *Coordinator) Updates() int64 {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.updates
}

// NextDispatchSeq claims the next per-run dispatch sequence number.
func (co *Coordinator) NextDispatchSeq() int64 {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.dispatchSeq++
	return co.dispatchSeq
}

// DispatchSeq reads the per-run dispatch counter (checkpoint export).
func (co *Coordinator) DispatchSeq() int64 {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.dispatchSeq
}

// SetDispatchSeq restores the per-run dispatch counter (checkpoint resume):
// subsequent tasks continue the interrupted run's seed stream exactly.
func (co *Coordinator) SetDispatchSeq(v int64) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.dispatchSeq = v
}

// HasNext reports whether a task result is queued (AC.hasNext in Table 1).
func (co *Coordinator) HasNext() bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	return len(co.queue) > 0
}

// Pending counts in-flight tasks.
func (co *Coordinator) Pending() int {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.pending
}

// Collect pops the oldest task result, blocking until one is available or
// timeout elapses (0 = block indefinitely while work is possible). It fails
// when nothing is queued and nothing is in flight — naming the run's last
// failed task, if one failed: a tolerated failure yields no result, so it
// can be what left the flight empty — or, like a cancelled context, and met
// again at the driver loop's next barrier, once the run's tasks have failed
// past the retry rule (see ErrTaskFailed).
func (co *Coordinator) Collect(timeout time.Duration) (TaskResult, error) {
	deadline := time.Time{}
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
		// wake the cond when the deadline passes so Wait can observe it
		timer := time.AfterFunc(timeout, func() {
			co.mu.Lock()
			co.cond.Broadcast()
			co.mu.Unlock()
		})
		defer timer.Stop()
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	for len(co.queue) == 0 {
		if co.ctxErr != nil {
			return TaskResult{}, co.ctxErr
		}
		if co.taskErr != nil {
			return TaskResult{}, co.taskErr
		}
		if co.closed {
			return TaskResult{}, errors.New("core: coordinator closed")
		}
		if co.pending == 0 {
			if co.lastFailure != "" {
				return TaskResult{}, fmt.Errorf("core: collect with no results and no tasks in flight; the run's last failed task, on %s", co.lastFailure)
			}
			return TaskResult{}, errors.New("core: collect with no results and no tasks in flight")
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return TaskResult{}, fmt.Errorf("core: collect timed out after %v", timeout)
		}
		co.cond.Wait()
	}
	tr := co.queue[0]
	co.queue = co.queue[1:]
	return tr, nil
}

// WaitTimes reports each worker's average wait time between tasks — the
// metric behind the paper's Fig. 4, Fig. 6 and Table 3.
func (co *Coordinator) WaitTimes() map[int]time.Duration {
	co.mu.Lock()
	defer co.mu.Unlock()
	out := map[int]time.Duration{}
	for w, total := range co.waitTotal {
		if n := co.waitCount[w]; n > 0 {
			out[w] = total / time.Duration(n)
		}
	}
	return out
}

// bindContext attaches a context whose cancellation aborts Collect calls
// and barrier waits with the context's error. It returns a release function
// that detaches the context (clearing any cancellation error so the
// coordinator is reusable); bindings do not stack — the latest wins.
func (co *Coordinator) bindContext(ctx context.Context) (release func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	co.mu.Lock()
	co.ctxGen++
	gen := co.ctxGen
	co.ctxErr = ctx.Err()
	co.mu.Unlock()
	stop := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			co.mu.Lock()
			if co.ctxGen == gen {
				co.ctxErr = ctx.Err()
				co.cond.Broadcast()
			}
			co.mu.Unlock()
		case <-stop:
		}
	}()
	return func() {
		close(stop)
		co.mu.Lock()
		if co.ctxGen == gen {
			co.ctxErr = nil
		}
		co.mu.Unlock()
	}
}

// Close stops the coordinator loop.
func (co *Coordinator) Close() {
	co.mu.Lock()
	if !co.closed {
		co.closed = true
		close(co.done)
	}
	co.cond.Broadcast()
	co.mu.Unlock()
}
