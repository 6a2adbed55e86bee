package jobs

import (
	"context"
	"math"
	"time"

	"repro/async"
	"repro/async/jobs/store"
	"repro/internal/metrics"
	"repro/internal/opt"
	"repro/internal/telemetry"
)

// ID identifies a submitted job.
type ID string

// State is a job's lifecycle phase.
type State string

// Job lifecycle states: queued → running → done | failed | canceled, with
// running → preempted → running excursions when the scheduler takes the
// engine away mid-run (the job holds a checkpoint and waits, queued, to be
// resumed).
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StatePreempted State = "preempted"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCanceled  State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// EventType discriminates entries of a job's event stream.
type EventType string

// Event types: one per state transition plus in-run progress samples.
// EventPreempted marks a mid-run checkpoint capture that returned the
// engine to the pool; EventResumed marks the job re-dispatching from that
// checkpoint.
const (
	EventQueued    EventType = "queued"
	EventStarted   EventType = "started"
	EventProgress  EventType = "progress"
	EventPreempted EventType = "preempted"
	EventResumed   EventType = "resumed"
	EventDone      EventType = "done"
	EventFailed    EventType = "failed"
	EventCanceled  EventType = "canceled"
)

// Event is one entry of a job's progress stream.
type Event struct {
	Job   ID        `json:"job"`
	Seq   int       `json:"seq"`
	Type  EventType `json:"type"`
	State State     `json:"state"`
	// Updates is the model-update count at the sample.
	Updates int64 `json:"updates,omitempty"`
	// Error is the current suboptimality f(w) − FStar, present when the
	// event carries a model snapshot and the value is finite.
	Error *float64 `json:"error,omitempty"`
	// ElapsedMS is solver wall-clock at the sample (progress events).
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
	// Wait summarizes per-worker wait times (terminal events of completed
	// runs).
	Wait *metrics.WaitSummary `json:"wait,omitempty"`
	// Message carries the failure/cancellation reason.
	Message string `json:"message,omitempty"`
}

// Job is a point-in-time snapshot of a job's lifecycle, safe to retain.
type Job struct {
	ID     ID     `json:"id"`
	Spec   Spec   `json:"spec"`
	State  State  `json:"state"`
	Engine int    `json:"engine"` // pool slot that ran it; -1 before dispatch
	Err    string `json:"err,omitempty"`

	Queued   time.Time `json:"queued"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`

	// Updates is the latest observed model-update count.
	Updates int64 `json:"updates"`
	// FinalError is the trace's final suboptimality, when finite.
	FinalError *float64 `json:"final_error,omitempty"`
	// Wait summarizes the run's per-worker wait times.
	Wait *metrics.WaitSummary `json:"wait,omitempty"`
	// QueueWaitMS is the time the job spent queued before dispatch (so
	// far, for jobs still queued).
	QueueWaitMS float64 `json:"queue_wait_ms"`
	// Preemptions counts how many times the job was checkpointed aside for
	// a higher-priority job (or an explicit Preempt call).
	Preemptions int `json:"preemptions,omitempty"`
	// HasCheckpoint reports whether a driver checkpoint is retrievable for
	// the job (periodic cadence or preemption capture).
	HasCheckpoint bool `json:"has_checkpoint,omitempty"`
	// ResumedFrom names the job whose checkpoint seeded this one (Spec
	// resume_from submissions).
	ResumedFrom ID `json:"resumed_from,omitempty"`
	// RunStats carries the engine's coordinator-level statistics for the
	// job's run — update clock, staleness distribution, per-worker waits —
	// sampled at each progress event and at run unwind.
	RunStats *async.RunStats `json:"run_stats,omitempty"`
	// Retries counts scheduler-side re-queues after transient run failures
	// (Spec.MaxRetries).
	Retries int `json:"retries,omitempty"`
	// Remote marks a job whose lease another replica currently holds: it
	// runs there, this replica only mirrors its durable records.
	Remote bool `json:"remote,omitempty"`
	// Owner names the replica holding the job's lease ("" when unleased or
	// in single-node mode).
	Owner string `json:"owner,omitempty"`
}

// job is the scheduler-internal record; all fields are guarded by the
// scheduler mutex except ctx/cancel/done (safe for concurrent use) and
// id/spec/dataKey (immutable after construction).
type job struct {
	id      ID
	spec    Spec
	dataKey string

	// JobState is what the job's records say. Only its Apply writes it —
	// through commitLocked for this replica's transitions, directly for
	// replayed and mirrored records — except Updates, which in-run progress
	// also advances.
	store.JobState

	engine  int // pool slot running the job here; -1 while it waits (kept once terminal)
	skipped int // times affinity routing jumped a later job past this head
	// queued is the last enqueue (reset on preemption, for queue-wait
	// accounting).
	queued  time.Time
	started time.Time
	// deadline is submitted + Spec.SLOMillis (zero when the spec named no
	// SLO); it survives restarts because replay re-derives it.
	deadline time.Time
	wait     *metrics.WaitSummary
	result   *async.Result

	ctx             context.Context
	cancel          context.CancelFunc
	cancelRequested bool
	done            chan struct{}

	// preemption state: the signal polled by the running solver, the
	// latest captured checkpoint (periodic or preemption), and whether a
	// preempt has been requested but not yet unwound.
	preempt      *opt.PreemptSignal
	cp           *opt.Checkpoint
	preempting   bool
	preemptAsked time.Time
	resumedFrom  ID

	// replica-mode state: lease is the fencing token this replica holds
	// while the job runs here; leaseLost flags a heartbeat self-fence (the
	// run's outcome must be abandoned, not finalized); remote marks a job
	// another replica owns; orphanedAt stamps the lease-expiry instant the
	// failover latency is measured from; retries counts Spec.MaxRetries
	// re-queues after transient run failures.
	lease       store.Lease
	leaseLost   bool
	remote      bool
	remoteOwner string
	orphanedAt  time.Time
	retries     int

	// trace is the job's run-scoped telemetry stream (scheduler lifecycle
	// events plus the driver runtime's, correlated by job ID). Immutable
	// pointer after construction; the Trace itself is internally locked.
	trace *telemetry.Trace
	// runStats is the latest engine-coordinator snapshot for the job's run.
	runStats *async.RunStats

	events   []Event
	eventSeq int
	subs     []chan Event
}

// newJob builds the scheduler record a submitted record opens — the one
// constructor behind Submit, boot replay and tail import. The caller
// supplies the decoded spec and registers the job.
func newJob(rec *store.Record, spec Spec) *job {
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:      ID(rec.Job),
		spec:    spec,
		dataKey: spec.Dataset.Key(),
		engine:  -1,
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
		trace:   telemetry.NewTrace(rec.Job, 0),
	}
	j.Apply(rec)
	j.queued = time.Unix(0, j.Submitted) // the submission time the SLO deadline anchors to
	if spec.SLOMillis > 0 {
		j.deadline = j.queued.Add(time.Duration(spec.SLOMillis) * time.Millisecond)
	}
	return j
}

// askPreempt asks the running solver to stop at its next update boundary.
func (j *job) askPreempt() {
	j.preempting = true
	j.preemptAsked = time.Now()
	j.preempt.Trigger()
}

// state is the job's lifecycle state as the API shows it: the terminal
// phase its records reached, else running while an engine here holds it,
// else waiting — preempted when it has run before and holds a checkpoint to
// resume from, queued otherwise.
func (j *job) state() State {
	switch {
	case j.Phase == store.PhaseDone:
		return StateDone
	case j.Phase == store.PhaseFailed:
		return StateFailed
	case j.Phase == store.PhaseCanceled:
		return StateCanceled
	case j.engine >= 0:
		return StateRunning
	case j.Phase != store.PhaseQueued && (j.cp != nil || j.HasCp):
		return StatePreempted
	}
	return StateQueued
}

func (j *job) snapshot() Job {
	s := Job{
		ID:            j.id,
		Spec:          j.spec,
		State:         j.state(),
		Engine:        j.engine,
		Err:           j.Detail,
		Queued:        j.queued,
		Started:       j.started,
		Updates:       j.Updates,
		Wait:          j.wait,
		Preemptions:   j.Preemptions,
		HasCheckpoint: j.cp != nil,
		ResumedFrom:   j.resumedFrom,
		RunStats:      j.runStats,
		Retries:       j.retries,
		Remote:        j.remote,
	}
	if j.Phase.Terminal() {
		s.Finished = time.Unix(0, j.Finished)
	}
	if j.HasFinal {
		s.FinalError = finitePtr(j.FinalError)
	}
	if j.lease.Epoch != 0 {
		s.Owner = j.lease.Owner
	} else if j.remote {
		s.Owner = j.remoteOwner
	}
	switch {
	case s.State == StateQueued || s.State == StatePreempted:
		// live wait; a preempted job's queued stamp restarts at preemption
		// (started still holds the previous dispatch, so it must not win)
		s.QueueWaitMS = float64(time.Since(j.queued).Microseconds()) / 1000.0
	case !j.started.IsZero() && !j.started.Before(j.queued):
		s.QueueWaitMS = float64(j.started.Sub(j.queued).Microseconds()) / 1000.0
	case j.Phase.Terminal():
		// canceled while waiting after a preemption (queued stamp is later
		// than the old start): report the wait from requeue to finalize
		s.QueueWaitMS = float64(s.Finished.Sub(j.queued).Microseconds()) / 1000.0
	}
	return s
}

// finitePtr returns &v when v is a normal number, nil for NaN/Inf — keeps
// job snapshots JSON-marshalable (encoding/json rejects NaN).
func finitePtr(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}
