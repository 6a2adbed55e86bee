package opt

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/rdd"
)

// PreemptSignal requests a mid-run stop at the next update boundary: the
// runtime settles the model, captures a checkpoint, drains in-flight tasks,
// and returns a *PreemptedError carrying the checkpoint. Trigger is safe
// from any goroutine; the poll happens on the driver goroutine only.
type PreemptSignal struct{ flag atomic.Bool }

// NewPreemptSignal builds a signal to pass through Params.Preempt.
func NewPreemptSignal() *PreemptSignal { return &PreemptSignal{} }

// Trigger requests preemption. Idempotent; nil receivers are no-ops.
func (s *PreemptSignal) Trigger() {
	if s != nil {
		s.flag.Store(true)
	}
}

// Requested reports whether Trigger has been called.
func (s *PreemptSignal) Requested() bool { return s != nil && s.flag.Load() }

// PreemptedError reports that a run stopped at an update boundary in
// response to its PreemptSignal. Checkpoint resumes the run exactly where
// it stopped (Params.Resume).
type PreemptedError struct{ Checkpoint *Checkpoint }

func (e *PreemptedError) Error() string {
	return fmt.Sprintf("opt: run preempted at update %d", e.Checkpoint.Updates)
}

// loopSpec parameterizes runLoop: everything that varies between solvers
// besides the Updater itself.
type loopSpec struct {
	Algo  string // trace label ("ASGD")
	Name  string // registry name recorded in checkpoints ("asgd")
	Key   string // broadcast id for the model
	P     *Params
	Loss  Loss // loss used to resolve the trace
	FStar float64

	// Target is the run budget: global model updates, or rounds when
	// RoundBudget is set.
	Target int64
	// Barrier overrides P.Barrier (the bulk-synchronous solvers force BSP);
	// nil inherits P.Barrier.
	Barrier core.BarrierFunc
	// Dispatch issues this cycle's tasks against the published model.
	Dispatch func(wBr core.DynBroadcast, sel *core.Selection) (int, error)

	// Round switches to bulk-synchronous semantics: every collected partial
	// is folded via Apply and the RoundUpdater's FlushRound turns the round
	// into one model update. StreamRound collects only what has arrived
	// (up to n — asynchronous consensus rounds); otherwise the round blocks
	// for all n partials. RoundBudget makes Target count attempted rounds
	// (empty rounds included) instead of applied updates.
	Round       bool
	StreamRound bool
	RoundBudget bool

	// EpochLen, when positive, divides the run into epochs of that many
	// updates; EpochBegin runs before the first dispatch of each epoch
	// (after draining the previous epoch's stragglers), given the model the
	// epoch's first tasks read, settled and published.
	EpochLen   int64
	EpochBegin func(global int64, wBr core.DynBroadcast) error

	// SyncStep replaces the publish/barrier/dispatch/collect machinery for
	// AC-free synchronous drivers (mllib-sgd): one call is one round, and
	// applied=false marks an empty round (recorded clock still advances,
	// matching the historical Spark-style drivers). When set, ac may be nil
	// and Workers supplies the trace's worker count.
	SyncStep func(global int64) (applied bool, err error)
	Workers  int
}

// runState is the runtime's per-run bookkeeping, shared with the core
// update-boundary hook.
type runState struct {
	spec  *loopSpec
	u     Updater
	ac    *core.Context // nil for AC-free synchronous drivers
	base  int64         // global = base + AC clock
	round int64         // attempted rounds (round-budgeted solvers)
	// cpDue is set by the update-boundary hook when the global clock hits
	// the checkpoint cadence; consumed on the driver goroutine.
	cpDue bool
	// sinceSettle counts partials folded since the last Settle — the
	// lazy-update backlog exported through async_opt_lazy_settle_backlog.
	sinceSettle int64
}

// apply folds one partial into the updater, timing the driver-side cost and
// tracking the lazy-settle backlog.
func (rt *runState) apply(payload any, attrs *core.Attrs, alpha float64) error {
	start := time.Now()
	err := rt.u.Apply(payload, attrs, alpha)
	optApply.ObserveSince(start)
	rt.sinceSettle++
	optBacklog.SetInt(rt.sinceSettle)
	return err
}

// settle flushes lazily-deferred updater state and zeroes the backlog gauge.
func (rt *runState) settle() {
	start := time.Now()
	rt.u.Settle()
	optSettle.ObserveSince(start)
	rt.sinceSettle = 0
	optBacklog.SetInt(0)
}

// onAdvance is the core update-boundary hook: it observes every clock
// advance and marks checkpoint cadence. It runs synchronously on the driver
// goroutine (inside AdvanceClock).
func (rt *runState) onAdvance(updates int64) {
	p := rt.spec.P
	if p.CheckpointEvery > 0 && (rt.base+updates)%int64(p.CheckpointEvery) == 0 {
		rt.cpDue = true
	}
}

// export captures the full driver state as a checkpoint. The caller must
// have settled the updater.
func (rt *runState) export(global int64) *Checkpoint {
	cp := &Checkpoint{
		Algorithm: rt.spec.Name,
		W:         rt.u.Model().Clone(),
		Updates:   global,
	}
	if rt.spec.Round || rt.spec.RoundBudget {
		// round-mode solvers feed the step schedule from the round counter,
		// so a resume must continue it even when the budget counts updates
		cp.SetInt("round", rt.round)
	}
	if rt.ac != nil {
		// the per-run dispatch counter seeds task sampling: carrying it
		// lets a resumed run (even on a reset engine) continue the
		// interrupted run's seed stream exactly
		cp.SetInt("dispatch_seq", rt.ac.Coordinator().DispatchSeq())
	}
	rt.u.Export(cp)
	return cp
}

// afterUpdate runs the per-update-boundary duties: settle-if-snapshot-due,
// record, emit a due checkpoint, and report a pending preemption. A snapshot
// that shows the model diverged ends the run with an error, before any
// checkpoint of that model is handed out.
func (rt *runState) afterUpdate(rec *Recorder, global int64) (preempt bool, err error) {
	p := rt.spec.P
	if rec.Due(global) {
		rt.settle()
	}
	rec.Maybe(global, rt.u.Model())
	if err := rt.diverged(rec); err != nil {
		return false, err
	}
	if rt.cpDue {
		rt.cpDue = false
		if p.OnCheckpoint != nil {
			rt.settle()
			p.Trace.Event("checkpoint", "global", global)
			p.OnCheckpoint(rt.export(global))
		}
	}
	return p.Preempt.Requested(), nil
}

// diverged reports a recorded snapshot that left the finite floats, under
// the solver's name.
func (rt *runState) diverged(rec *Recorder) error {
	if err := rec.Err(); err != nil {
		return fmt.Errorf("opt: %s: %w", rt.spec.Algo, err)
	}
	return nil
}

// preempted finalizes a preempted run: settle, capture, drain, and wrap the
// checkpoint in the error the supervising layer dispatches on.
func (rt *runState) preempted(ac *core.Context, global int64) (*Result, error) {
	rt.settle()
	cp := rt.export(global)
	if ac != nil {
		drain(ac)
	}
	optPreempts.Inc()
	rt.spec.P.Trace.Event("preempted", "algo", rt.spec.Algo, "global", global)
	return nil, &PreemptedError{Checkpoint: cp}
}

// changeReporter is an Updater that can name the model coordinates changed
// since its previous report. The runtime reports at every publish, so the
// driver stores each version as the values that changed since the one
// before, and a TCP fetch ships only those. An Updater without it changes
// every coordinate.
type changeReporter interface {
	changes() rdd.Changed
}

// changeSet is what a changeReporter keeps between reports: the coordinates
// its steps touched, or every one (all). Updaters start with all set, and an
// import sets it again: the first version of a run owes the store a whole
// model.
type changeSet struct {
	touched []int32
	all     bool
}

// touch records the coordinates idx of a dim-coordinate model as changed;
// once more are listed than the model has, the report is all.
func (c *changeSet) touch(idx []int32, dim int) {
	if c.all = c.all || len(c.touched)+len(idx) > dim; !c.all {
		c.touched = append(c.touched, idx...)
	}
}

// changes reports what the steps since the last report changed and starts
// the next report. The touched list is sorted and deduplicated in place and
// handed out as a copy of its own, which the driver store keeps.
func (c *changeSet) changes() rdd.Changed {
	ch := rdd.Changed{All: c.all}
	if !c.all {
		slices.Sort(c.touched)
		ch.Idx = slices.Clone(slices.Compact(c.touched))
	}
	c.touched, c.all = c.touched[:0], false
	return ch
}

// publish stages the settled model for the workers under the global update
// clock: a cycle that came round without an update re-issues the handle it
// already has — no settle, no new version for a worker to fetch. The store
// borrows the model and copies only what the updater reports changed, so a
// version costs O(changed) until something reads it.
func (rt *runState) publish(ac *core.Context, global int64) core.DynBroadcast {
	fresh := false
	br := ac.ASYNCbroadcastStamped(rt.spec.Key, global, func() (any, rdd.Changed) {
		fresh = true
		rt.settle()
		ch := rdd.Changed{All: true}
		if r, ok := rt.u.(changeReporter); ok {
			ch = r.changes()
		}
		return rt.u.Model(), ch
	})
	if fresh && rt.spec.P.OnPublish != nil {
		rt.spec.P.OnPublish(br.Version, rt.u.Model())
	}
	return br
}

// runLoop is the single solve loop every solver drives: it owns resume
// import, the broadcast/barrier/dispatch/collect cycle, step-size and
// staleness-adaptive scaling, the recorder and progress cadence, lazy
// settle scheduling, periodic checkpoints, preemption, drain, and trace
// assembly. ac may be nil only for SyncStep specs.
func runLoop(ac *core.Context, d *dataset.Dataset, u Updater, spec *loopSpec) (*Result, error) {
	p := spec.P
	rt := &runState{spec: spec, u: u, ac: ac}
	resume := p.Resume
	if resume == nil && p.InitW != nil {
		// a warm start is a resume at update 0 that carries only the model
		resume = &Checkpoint{Algorithm: spec.Name, W: p.InitW}
	}
	if resume != nil {
		if err := resume.Validate(); err != nil {
			return nil, fmt.Errorf("opt: resume %s: %w", spec.Algo, err)
		}
		// import through a shallow copy carrying the worker-state verdict:
		// a same-context resume (clock still at the checkpointed value)
		// kept every worker's run state; a resume after an engine reset
		// (clock back at zero) did not, and solvers whose driver state is
		// coupled to worker shards must restart those terms consistently
		cp := *resume
		cp.historyAttached = ac != nil && ac.Updates() == cp.Updates
		if err := u.Import(&cp); err != nil {
			return nil, fmt.Errorf("opt: resume %s: %w", spec.Algo, err)
		}
		rt.base = resume.Updates
		rt.round = resume.Int("round")
		if ac != nil {
			// continue the interrupted run's task-seed stream: a reset
			// engine restarts the dispatch counter at zero, which would
			// otherwise re-draw the first segment's samples
			if seq := resume.Int("dispatch_seq"); seq > ac.Coordinator().DispatchSeq() {
				ac.Coordinator().SetDispatchSeq(seq)
			}
		}
	}
	var clock int64
	if ac != nil {
		clock = ac.Updates()
		ac.SetUpdateHook(rt.onAdvance)
		defer ac.SetUpdateHook(nil)
	}
	rt.base -= clock
	global := rt.base + clock
	if spec.RoundBudget && rt.round < global {
		rt.round = global // pre-runtime checkpoints carried no round counter
	}

	optRuns.Inc()
	p.Trace.Event("run_start", "algo", spec.Algo, "target", spec.Target,
		"global", global, "resumed", p.Resume != nil)

	rec := p.recorder()
	rt.settle()
	rec.Force(global, u.Model())
	if err := rt.diverged(rec); err != nil { // a resume from a diverged checkpoint
		return nil, err
	}

	ru, _ := u.(RoundUpdater)
	if spec.Round && ru == nil {
		return nil, fmt.Errorf("opt: %s: round spec without a RoundUpdater", spec.Algo)
	}
	barrier := spec.Barrier
	if barrier == nil {
		barrier = p.Barrier
	}
	seg := int64(-1)
	budget := func() int64 {
		if spec.RoundBudget {
			return rt.round
		}
		return global
	}
	for budget() < spec.Target {
		if p.Preempt.Requested() {
			return rt.preempted(ac, global)
		}

		// --- AC-free synchronous rounds (mllib-style drivers) ---
		if spec.SyncStep != nil {
			applied, err := spec.SyncStep(global)
			if err != nil {
				return nil, err
			}
			rt.round++
			global++
			rt.onAdvance(global - rt.base)
			if applied {
				if stop, err := rt.afterUpdate(rec, global); err != nil {
					return nil, err
				} else if stop {
					return rt.preempted(ac, global)
				}
			} else {
				rt.cpDue = false // nothing new to capture this round
			}
			continue
		}

		wBr := rt.publish(ac, global)
		// --- epoch boundary (variance-reduced solvers) ---
		if spec.EpochLen > 0 {
			if s := global / spec.EpochLen; s != seg {
				if seg >= 0 {
					// drain this epoch's stragglers before re-anchoring
					drain(ac)
				}
				if err := spec.EpochBegin(global, wBr); err != nil {
					return nil, err
				}
				p.Trace.Event("epoch_begin", "epoch", s, "global", global)
				seg = s
			}
		}
		sel, err := ac.ASYNCbarrier(barrier, p.Filter)
		if err != nil {
			return nil, fmt.Errorf("opt: %s after %d updates: %w", spec.Algo, global, err)
		}
		n, err := spec.Dispatch(wBr, sel)
		if err != nil {
			return nil, err
		}

		if spec.Round {
			// --- bulk-synchronous round: fold partials, flush one update ---
			if spec.StreamRound {
				// collect whatever has arrived, up to n (async consensus)
				for first, got := true, 0; (first || ac.HasNext()) && got < n; first = false {
					tr, err := ac.ASYNCcollectAll()
					if err != nil {
						break
					}
					if err := rt.apply(tr.Payload, &tr.Attrs, 0); err != nil {
						return nil, fmt.Errorf("opt: %s: %w", spec.Algo, err)
					}
					got++
				}
			} else {
				// block for all n partials (early break: the rest were
				// empty samples and produced no queue entry)
				for i := 0; i < n; i++ {
					tr, err := ac.ASYNCcollectAll()
					if err != nil {
						break
					}
					if err := rt.apply(tr.Payload, &tr.Attrs, 0); err != nil {
						return nil, fmt.Errorf("opt: %s: %w", spec.Algo, err)
					}
				}
			}
			alpha := 0.0
			if p.Step != nil {
				alpha = p.Step.Alpha(rt.round)
			}
			rt.round++
			applied, err := ru.FlushRound(alpha)
			if err != nil {
				return nil, err
			}
			if !applied {
				continue // empty round: no clock advance, retry
			}
			global = rt.base + ac.AdvanceClock()
			if stop, err := rt.afterUpdate(rec, global); err != nil {
				return nil, err
			} else if stop {
				return rt.preempted(ac, global)
			}
			continue
		}

		// --- streaming collect: one model update per collected result ---
		segEnd := spec.Target
		if spec.EpochLen > 0 {
			if e := (seg + 1) * spec.EpochLen; e < segEnd {
				segEnd = e
			}
		}
		for first := true; (first || ac.HasNext()) && global < segEnd; first = false {
			tr, err := ac.ASYNCcollectAll()
			if err != nil {
				break
			}
			alpha := 0.0
			if p.Step != nil {
				alpha = p.Step.Alpha(global)
				if p.StalenessLR {
					alpha = StalenessAdapt(alpha, tr.Attrs.Staleness)
				}
			}
			if err := rt.apply(tr.Payload, &tr.Attrs, alpha); err != nil {
				return nil, fmt.Errorf("opt: %s: %w", spec.Algo, err)
			}
			global = rt.base + ac.AdvanceClock()
			if stop, err := rt.afterUpdate(rec, global); err != nil {
				return nil, err
			} else if stop {
				return rt.preempted(ac, global)
			}
		}
	}
	rt.settle()
	rec.Finish(global, u.Model())
	if err := rt.diverged(rec); err != nil {
		return nil, err
	}
	p.Trace.Event("run_done", "algo", spec.Algo, "global", global)
	if ac != nil {
		drain(ac)
		return &Result{Trace: newTrace(ac, spec.Algo, d, rec, spec.Loss, spec.FStar), W: u.Model()}, nil
	}
	return &Result{
		Trace: &metrics.Trace{
			Algorithm: spec.Algo,
			Dataset:   d.Name,
			Workers:   spec.Workers,
			Points:    rec.Resolve(d, spec.Loss, spec.FStar),
			Total:     rec.Total(),
		},
		W: u.Model(),
	}, nil
}

// drain discards leftover in-flight results so the AC is clean for the next
// run, waiting at most five seconds for stragglers; a straggler still in
// flight after that is left to the next ResetRun.
func drain(ac *core.Context) {
	_ = ac.Coordinator().Drain(5 * time.Second)
}

// newTrace assembles trace metadata after a run.
func newTrace(ac *core.Context, algo string, d *dataset.Dataset, rec *Recorder, loss Loss, fstar float64) *metrics.Trace {
	return &metrics.Trace{
		Algorithm: algo,
		Dataset:   d.Name,
		Workers:   ac.RDD().Cluster().NumWorkers(),
		Straggler: "none", // overwritten by harnesses that inject delays
		Points:    rec.Resolve(d, loss, fstar),
		AvgWait:   ac.Coordinator().WaitTimes(),
		Total:     rec.Total(),
	}
}
