package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/async"
	"repro/async/jobs/store"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/opt"
	"repro/internal/telemetry"
)

// Backpressure and lookup errors of the public API.
var (
	// ErrQueueFull is Submit's backpressure signal: the bounded queue is at
	// capacity. Callers retry later or shed load.
	ErrQueueFull = errors.New("jobs: queue is full")
	// ErrUnknownJob is returned for an ID the store does not hold (never
	// assigned, or evicted by the retention limit).
	ErrUnknownJob = errors.New("jobs: unknown job")
	// ErrClosed is returned by operations on a closed scheduler.
	ErrClosed = errors.New("jobs: scheduler is closed")
	// ErrNotRunning is returned by Preempt for a job that holds no engine.
	ErrNotRunning = errors.New("jobs: job is not running")
	// ErrNoCheckpoint is returned when a job holds no retrievable
	// checkpoint (no cadence configured and never preempted).
	ErrNoCheckpoint = errors.New("jobs: job has no checkpoint")
	// ErrStoreUnavailable rejects new submissions while the durable store
	// errors out: running jobs keep serving (graceful degradation), but
	// acknowledging a job the log cannot record would break
	// append-before-ack.
	ErrStoreUnavailable = errors.New("jobs: store unavailable")
	// ErrRemoteJob is returned for mutations of a job whose lease another
	// replica holds — cancel or preempt it on its owning replica.
	ErrRemoteJob = errors.New("jobs: job is owned by another replica")
)

// eventBuffer is the per-subscriber channel slack beyond history replay;
// a subscriber that lags further loses intermediate progress events (the
// channel close still signals termination, and Status has the final word).
const eventBuffer = 64

// maxEventHistory bounds the per-job event history kept for replay.
const maxEventHistory = 256

// maxQueueJumps bounds how many times affinity routing may dispatch a
// later job ahead of the current queue head before the head is forced.
const maxQueueJumps = 4

// Config sizes a Scheduler. The zero value serves: 2 engines, a 64-job
// queue, 256 retained terminal jobs, default engine options.
type Config struct {
	// Engines is the engine-pool ceiling; engines spin up lazily as
	// concurrent demand appears (default 2).
	Engines int
	// QueueDepth bounds the number of queued (not yet running) jobs;
	// Submit returns ErrQueueFull beyond it (default 64).
	QueueDepth int
	// Retention is how many terminal jobs (results included) the store
	// keeps before evicting the oldest (default 256).
	Retention int
	// DatasetCache bounds how many generated datasets (and their cached
	// reference optima) stay resident; beyond it the least-recently-used
	// is dropped and regenerated on next use (default 8).
	DatasetCache int
	// EngineOptions configure each pool engine (workers, transport,
	// barrier default, straggler model, ...).
	EngineOptions []async.Option
	// NewEngine overrides engine construction (tests, custom transports);
	// default async.New(EngineOptions...).
	NewEngine func(slot int) (*async.Engine, error)
	// Store, when set, makes job state durable: every lifecycle transition
	// is appended to it before Submit acknowledges, checkpoints spill
	// through it, and New replays it to recover jobs from a previous
	// process. Nil (the default) keeps today's in-memory behavior.
	Store store.Store
	// CompactEvery triggers a log compaction after that many appends
	// (default 1024). Only meaningful with a Store.
	CompactEvery int
	// TenantQuota bounds how many queued (waiting, preempted included) jobs
	// one tenant may hold; Submit rejects beyond it with ErrQueueFull so a
	// single tenant cannot exhaust the shared queue. 0 disables per-tenant
	// admission control.
	TenantQuota int
	// SLOSlack is the deadline slack below which a queued job with an SLO
	// (Spec.SLOMillis) may preempt a running job with more slack, even at
	// equal priority (default 5s).
	SLOSlack time.Duration
	// ReplicaID enables multi-replica serving: the scheduler claims jobs
	// through the store's lease CAS before dispatching (a Store is
	// required), renews held leases on a heartbeat,
	// fences every owned append with its lease epoch, mirrors the other
	// replicas' records by tailing the shared log, and adopts orphaned
	// jobs whose lease expired. Empty (the default) keeps single-owner
	// mode. Job IDs become "job-<replica>-%06d" so two replicas never
	// mint the same ID.
	ReplicaID string
	// LeaseTTL is the job-lease duration in replica mode (default 10s). A
	// replica that cannot renew within it loses the job to failover.
	LeaseTTL time.Duration
	// RenewEvery is the lease-renewal heartbeat period (default
	// LeaseTTL/3).
	RenewEvery time.Duration
	// AdoptScanEvery is the shared-log tail and orphan-scan period
	// (default LeaseTTL/2). It bounds failover detection latency.
	AdoptScanEvery time.Duration
}

func (c *Config) defaults() {
	if c.Engines <= 0 {
		c.Engines = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Retention <= 0 {
		c.Retention = 256
	}
	if c.DatasetCache <= 0 {
		c.DatasetCache = 8
	}
	if c.NewEngine == nil {
		opts := c.EngineOptions
		c.NewEngine = func(int) (*async.Engine, error) { return async.New(opts...) }
	}
	if c.CompactEvery <= 0 {
		c.CompactEvery = 1024
	}
	if c.SLOSlack <= 0 {
		c.SLOSlack = 5 * time.Second
	}
	if c.ReplicaID != "" {
		if c.LeaseTTL <= 0 {
			c.LeaseTTL = 10 * time.Second
		}
		if c.RenewEvery <= 0 {
			c.RenewEvery = c.LeaseTTL / 3
		}
		if c.AdoptScanEvery <= 0 {
			c.AdoptScanEvery = c.LeaseTTL / 2
		}
	}
}

// Stats is a snapshot of the scheduler's serving counters.
type Stats struct {
	Submitted int64 `json:"submitted"`
	Rejected  int64 `json:"rejected"`
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	Preempted int64 `json:"preempted"`

	Queued      int `json:"queued"`
	Running     int `json:"running"`
	EnginesLive int `json:"engines_live"`
	EnginesMax  int `json:"engines_max"`
	QueueDepth  int `json:"queue_depth"`

	AvgQueueWaitMS float64 `json:"avg_queue_wait_ms"`
	MaxQueueWaitMS float64 `json:"max_queue_wait_ms"`

	// Durability counters (zero without a configured store).
	RecoveredJobs int     `json:"recovered_jobs,omitempty"`
	RecoveryMS    float64 `json:"recovery_ms,omitempty"`
	StoreErrors   int64   `json:"store_errors,omitempty"`
	// Degraded reports that the last store append failed: new submissions
	// are being rejected with ErrStoreUnavailable while running jobs keep
	// serving. Clears on the next successful append.
	Degraded bool `json:"degraded,omitempty"`
	// Replica-mode counters (zero in single-owner mode).
	Replica    string  `json:"replica,omitempty"`
	LeasesHeld int     `json:"leases_held,omitempty"`
	RemoteJobs int     `json:"remote_jobs,omitempty"`
	Fenced     int64   `json:"fenced,omitempty"`
	Adopted    int64   `json:"adopted,omitempty"`
	Retries    int64   `json:"retries,omitempty"`
	FailoverMS float64 `json:"failover_ms,omitempty"` // mean orphan-expiry → re-claim latency
	// Tenants breaks admission and occupancy down per tenant when any job
	// named one ("" stays aggregate-only).
	Tenants map[string]TenantStats `json:"tenants,omitempty"`
}

// TenantStats is one tenant's slice of the serving counters.
type TenantStats struct {
	Submitted int64 `json:"submitted"`
	Rejected  int64 `json:"rejected"`
	Done      int64 `json:"done"`
	Queued    int   `json:"queued"`
	Running   int   `json:"running"`
}

// slot is one engine of the pool. eng and dataKey are touched only by the
// run goroutine while busy, and only under the scheduler mutex while idle.
type slot struct {
	id       int
	eng      *async.Engine
	busy     bool
	dataKey  string // key of the dataset the engine holds ("" = none)
	lastUsed int64
}

// Scheduler owns the engine pool, the job queue, and the job store. Create
// one with New, release it with Close.
type Scheduler struct {
	cfg Config

	mu       sync.Mutex
	queue    []*job // priority desc, submission order within a priority
	slots    []*slot
	jobs     map[ID]*job
	terminal []ID // terminal jobs in completion order, for retention
	seq      int64
	useSeq   int64
	closed   bool
	draining bool
	wg       sync.WaitGroup
	// freed is closed, and cleared, when a run gives its slot back; Drain
	// waits on it
	freed chan struct{}

	degraded  bool // the last store operation failed
	startedAt time.Time

	// replica mode (zero in single-owner mode): the shared-log tail
	// position and the loop stop signal.
	wm          store.Watermark
	replicaStop chan struct{}

	dsMu    sync.Mutex
	dsCache map[string]*dsEntry
	dsOrder []string // LRU order, least-recent first

	// telemetry: the scheduler-private registry (asyncd_* families), the
	// serving counts that are its instruments, and the one figure a
	// histogram does not keep
	reg          *telemetry.Registry
	count        counts
	queueWaitMax time.Duration
}

// New builds a scheduler; engines spin up lazily on demand. With a
// configured Store, New first replays its log: terminal jobs reload into
// the retention store, interrupted jobs re-enqueue (with their last durable
// checkpoint when one exists) and resume as engines come up.
func New(cfg Config) (*Scheduler, error) {
	cfg.defaults()
	s := &Scheduler{
		cfg:       cfg,
		jobs:      map[ID]*job{},
		dsCache:   map[string]*dsEntry{},
		startedAt: time.Now(),
	}
	if s.replica() && cfg.Store == nil {
		return nil, fmt.Errorf("jobs: replica mode %q needs a store", cfg.ReplicaID)
	}
	s.registerMetrics()
	if cfg.Store != nil {
		if err := s.recover(); err != nil {
			return nil, err
		}
	}
	if s.replica() {
		s.startReplicaLoops()
	}
	return s, nil
}

// Submit validates and enqueues a job, returning its ID immediately. The
// queue is bounded: ErrQueueFull signals backpressure. A spec naming
// ResumeFrom is seeded with the source job's latest checkpoint (algorithm,
// dataset and update budget default to the source's when unset).
func (s *Scheduler) Submit(spec Spec) (ID, error) {
	var cp *opt.Checkpoint
	var src ID
	if spec.ResumeFrom != "" {
		s.mu.Lock()
		from, ok := s.jobs[spec.ResumeFrom]
		if !ok {
			s.mu.Unlock()
			return "", fmt.Errorf("%w: resume_from %s", ErrUnknownJob, spec.ResumeFrom)
		}
		if from.cp == nil {
			s.mu.Unlock()
			return "", fmt.Errorf("%w: resume_from %s", ErrNoCheckpoint, spec.ResumeFrom)
		}
		cp, src = from.cp, from.id
		// unset fields inherit the source job's spec wholesale — a resumed
		// run must continue the same objective and hyperparameters, not
		// reset them to global defaults
		spec = spec.withResumeBase(from.spec)
		if spec.Algorithm == "" {
			spec.Algorithm = cp.Algorithm
		}
		s.mu.Unlock()
	}
	if err := spec.normalize(); err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", ErrClosed
	}
	if s.cfg.TenantQuota > 0 {
		held := 0
		for _, q := range s.queue {
			if q.spec.Tenant == spec.Tenant {
				held++
			}
		}
		if held >= s.cfg.TenantQuota {
			s.count.rejected.Inc()
			s.count.byTenant(s.count.tenantRej, spec.Tenant).Inc()
			return "", fmt.Errorf("%w: tenant %q at quota %d", ErrQueueFull, spec.Tenant, s.cfg.TenantQuota)
		}
	}
	if len(s.queue) >= s.cfg.QueueDepth {
		s.count.rejected.Inc()
		s.count.byTenant(s.count.tenantRej, spec.Tenant).Inc()
		return "", fmt.Errorf("%w (depth %d)", ErrQueueFull, s.cfg.QueueDepth)
	}
	id := fmt.Sprintf("job-%06d", s.seq+1)
	if s.replica() {
		// replica-qualified IDs: two replicas minting concurrently must
		// never collide
		id = fmt.Sprintf("job-%s-%06d", s.cfg.ReplicaID, s.seq+1)
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return "", fmt.Errorf("jobs: encode spec: %w", err)
	}
	rec := &store.Record{Type: store.TypeSubmitted, Job: id, JobSeq: s.seq + 1, Spec: specJSON}
	// append-before-ack: the submitted record must be durable before the
	// caller learns the ID; a failed append fails the Submit
	if err := s.appendLocked(rec); err != nil {
		return "", fmt.Errorf("%w: durable submit: %v", ErrStoreUnavailable, err)
	}
	s.seq++
	j := newJob(rec, spec)
	j.cp, j.resumedFrom = cp, src
	j.trace.Event("queued", "algorithm", spec.Algorithm, "tenant", spec.Tenant,
		"priority", spec.Priority, "resumed_from", string(src))
	s.jobs[j.id] = j
	s.enqueueLocked(j)
	s.count.submitted.Inc()
	s.count.byTenant(s.count.tenantSub, spec.Tenant).Inc()
	s.emitLocked(j, EventQueued, "")
	s.dispatchLocked()
	return j.id, nil
}

// enqueueLocked inserts after the last job with priority >= ours: priority
// order, FIFO within a level.
func (s *Scheduler) enqueueLocked(j *job) {
	at := sort.Search(len(s.queue), func(i int) bool {
		return s.queue[i].spec.Priority < j.spec.Priority
	})
	s.queue = append(s.queue, nil)
	copy(s.queue[at+1:], s.queue[at:])
	s.queue[at] = j
}

// Preempt asks a running job to stop at its next update boundary: the
// solver captures a checkpoint, the engine returns to the pool, and the job
// re-enters the queue in StatePreempted, resuming from the checkpoint when
// an engine frees up. Preemption is cooperative — every registry solver
// polls the signal through the driver runtime, but a custom solver that
// ignores Params.Preempt simply runs to completion. Preempting a job that
// is not running fails with ErrNotRunning.
func (s *Scheduler) Preempt(id ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return ErrUnknownJob
	}
	if j.remote {
		return fmt.Errorf("%w: %s runs on %s", ErrRemoteJob, id, j.remoteOwner)
	}
	if st := j.state(); st != StateRunning {
		return fmt.Errorf("%w: %s is %s", ErrNotRunning, id, st)
	}
	j.askPreempt()
	return nil
}

// Checkpoint returns the job's latest captured checkpoint (periodic
// cadence or preemption capture).
func (s *Scheduler) Checkpoint(id ID) (*opt.Checkpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	if j.cp == nil {
		return nil, ErrNoCheckpoint
	}
	return j.cp, nil
}

// Trace returns the job's run-scoped trace (JSONL event ring). The trace is
// append-only and safe to read while the job runs.
func (s *Scheduler) Trace(id ID) (*telemetry.Trace, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	return j.trace, nil
}

// Status returns a snapshot of the job.
func (s *Scheduler) Status(id ID) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, ErrUnknownJob
	}
	return j.snapshot(), nil
}

// Result returns a terminal job's full solver result (nil for jobs that
// did not complete successfully).
func (s *Scheduler) Result(id ID) (*async.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	return j.result, nil
}

// List snapshots every job the store holds, in submission order.
func (s *Scheduler) List() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.jobs))
	for _, j := range s.orderedLocked() {
		out = append(out, j.snapshot())
	}
	return out
}

// orderedLocked returns the held jobs in listing order: submission ordinal,
// then ID. Imported remote jobs keep their home replica's JobSeq, so
// ordinals alone are not unique across replicas — the ID tie-break keeps
// pagination (and the compaction snapshot) total and stable.
func (s *Scheduler) orderedLocked() []*job {
	ordered := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		ordered = append(ordered, j)
	}
	sort.Slice(ordered, func(a, b int) bool {
		if ordered[a].JobSeq != ordered[b].JobSeq {
			return ordered[a].JobSeq < ordered[b].JobSeq
		}
		return ordered[a].id < ordered[b].id
	})
	return ordered
}

// ListQuery filters and paginates ListPage.
type ListQuery struct {
	// State keeps only jobs in that lifecycle state ("" = all).
	State State
	// Tenant keeps only jobs of that tenant ("" = all).
	Tenant string
	// After is an exclusive cursor: only jobs submitted after the named job
	// are returned. A cursor naming an evicted job still works — the
	// submission ordinal is parsed from the ID.
	After ID
	// Limit bounds the page size (0 = unlimited).
	Limit int
}

// ListPage snapshots matching jobs in submission order, starting after the
// cursor, at most Limit. next is the cursor of the following page, "" when
// the listing is exhausted.
func (s *Scheduler) ListPage(q ListQuery) (page []Job, next ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// the cursor is the full (seq, id) pair: seqs tie across replicas (an
	// imported job keeps its home replica's ordinal), and a bare
	// strictly-greater seq comparison would skip or duplicate at ties
	afterSeq, afterID := int64(-1), ID("")
	if q.After != "" {
		afterSeq, afterID = cursorSeq(s.jobs, q.After), q.After
	}
	page = []Job{}
	for _, j := range s.orderedLocked() {
		if j.JobSeq < afterSeq || (j.JobSeq == afterSeq && j.id <= afterID) {
			continue
		}
		if q.State != "" && j.state() != q.State {
			continue
		}
		if q.Tenant != "" && j.spec.Tenant != q.Tenant {
			continue
		}
		if q.Limit > 0 && len(page) == q.Limit {
			next = page[len(page)-1].ID
			return page, next
		}
		page = append(page, j.snapshot())
	}
	return page, ""
}

// cursorSeq resolves a cursor ID to its submission ordinal: the held job's
// seq when retained, else the ordinal parsed from the ID shape (so
// pagination keeps working across a cursor's retention eviction). Both
// "job-%06d" and the replica-qualified "job-<replica>-%06d" end with the
// ordinal after the last dash.
func cursorSeq(jobs map[ID]*job, id ID) int64 {
	if j, ok := jobs[id]; ok {
		return j.JobSeq
	}
	if i := strings.LastIndexByte(string(id), '-'); i >= 0 {
		if n, err := strconv.ParseInt(string(id)[i+1:], 10, 64); err == nil {
			return n
		}
	}
	return -1
}

// Wait blocks until the job reaches a terminal state (or ctx ends) and
// returns the final snapshot.
func (s *Scheduler) Wait(ctx context.Context, id ID) (Job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Job{}, ErrUnknownJob
	}
	select {
	case <-ctx.Done():
		return Job{}, ctx.Err()
	case <-j.done:
	}
	// snapshot the held record directly: a retention eviction between the
	// done signal and a by-ID lookup must not turn a completed job into
	// ErrUnknownJob for its own waiter
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.snapshot(), nil
}

// Cancel aborts a job: a queued job is removed before it ever starts; a
// running job's context is canceled, aborting barrier waits and collects
// mid-run. Canceling a terminal job is a no-op.
func (s *Scheduler) Cancel(id ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return ErrUnknownJob
	}
	if j.remote {
		return fmt.Errorf("%w: %s runs on %s", ErrRemoteJob, id, j.remoteOwner)
	}
	switch j.state() {
	case StateQueued, StatePreempted:
		if err := s.finalizeLocked(j, nil, context.Canceled); err != nil {
			// the log refused the record: another replica claimed the job
			// since this one last scanned the tail
			return fmt.Errorf("%w: %s: %v", ErrRemoteJob, id, err)
		}
	case StateRunning:
		j.cancelRequested = true
		j.cancel()
	}
	return nil
}

// removeFromQueueLocked takes the job out of the waiting queue if present.
func (s *Scheduler) removeFromQueueLocked(j *job) {
	for i, q := range s.queue {
		if q == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return
		}
	}
}

// Subscribe returns a channel of the job's events, starting with a replay
// of its history; the channel closes once the job is terminal (and the
// backlog drained). The returned stop function releases the subscription
// early. Slow subscribers lose intermediate progress events rather than
// blocking the scheduler.
func (s *Scheduler) Subscribe(id ID) (<-chan Event, func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, nil, ErrUnknownJob
	}
	ch := make(chan Event, len(j.events)+eventBuffer)
	for _, ev := range j.events {
		ch <- ev
	}
	if j.Phase.Terminal() {
		close(ch)
		return ch, func() {}, nil
	}
	j.subs = append(j.subs, ch)
	stop := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		for i, c := range j.subs {
			if c == ch {
				j.subs = append(j.subs[:i], j.subs[i+1:]...)
				close(ch)
				return
			}
		}
	}
	return ch, stop, nil
}

// Stats snapshots the serving counters: the instruments /v1/metrics
// exposes, and the live state it reads at scrape through the same accessors.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := &s.count
	st := Stats{
		Submitted:      c.submitted.Value(),
		Rejected:       c.rejected.Value(),
		Done:           c.done.Value(),
		Failed:         c.failed.Value(),
		Canceled:       c.canceled.Value(),
		Preempted:      c.preempted.Value(),
		Queued:         len(s.queue),
		EnginesMax:     s.cfg.Engines,
		QueueDepth:     s.cfg.QueueDepth,
		AvgQueueWaitMS: 1000 * s.avgQueueWait(),
		MaxQueueWaitMS: 1000 * s.queueWaitMax.Seconds(),
		RecoveredJobs:  int(c.recovered.Value()),
		RecoveryMS:     1000 * c.recoverySec.Value(),
		StoreErrors:    c.storeErrs.Value(),
		Degraded:       s.degraded,
		Retries:        c.retried.Value(),
		Tenants:        s.tenantStatsLocked(),
	}
	st.EnginesLive, st.Running = s.enginesLocked()
	if s.replica() {
		st.Replica = s.cfg.ReplicaID
		st.Fenced, st.Adopted = c.fenced.Value(), c.adopted.Value()
		st.LeasesHeld, st.RemoteJobs = s.leasesLocked()
		if n := c.failover.Count(); n > 0 {
			st.FailoverMS = 1000 * c.failover.Sum() / float64(n)
		}
	}
	return st
}

// countOutcomeLocked counts the terminal phase a job reached (nothing for
// a job still live).
func (s *Scheduler) countOutcomeLocked(j *job) {
	switch j.Phase {
	case store.PhaseDone:
		s.count.done.Inc()
		s.count.byTenant(s.count.tenantDone, j.spec.Tenant).Inc()
	case store.PhaseFailed:
		s.count.failed.Inc()
	case store.PhaseCanceled:
		s.count.canceled.Inc()
	}
}

// avgQueueWait is the mean queue wait of dispatched runs in seconds, read
// off the per-priority histograms (every dispatch observes exactly one).
func (s *Scheduler) avgQueueWait() float64 {
	var sum, n float64
	s.count.qWaitPrio.Each(func(_ string, h *telemetry.Histogram) {
		sum, n = sum+h.Sum(), n+float64(h.Count())
	})
	if n == 0 {
		return 0
	}
	return sum / n
}

// enginesLocked counts the pool's spun-up engines and the busy ones.
func (s *Scheduler) enginesLocked() (live, running int) {
	for _, sl := range s.slots {
		if sl.eng != nil || sl.busy {
			live++
		}
		if sl.busy {
			running++
		}
	}
	return live, running
}

// leasesLocked counts the non-terminal jobs whose lease this replica holds
// and those another replica owns.
func (s *Scheduler) leasesLocked() (held, remote int) {
	for _, j := range s.jobs {
		if j.Phase.Terminal() {
			continue
		}
		if j.lease.Epoch != 0 {
			held++
		}
		if j.remote {
			remote++
		}
	}
	return held, remote
}

// tenantStatsLocked assembles the per-tenant breakdown over the tenants the
// per-tenant counter families hold a series for — every named tenant that
// submitted, was rejected or owns a held job; the unnamed tenant ("") stays
// aggregate-only. Nil when no job ever named a tenant.
func (s *Scheduler) tenantStatsLocked() map[string]TenantStats {
	var out map[string]TenantStats
	s.count.tenantSub.Each(func(t string, sub *telemetry.Counter) {
		if out == nil {
			out = map[string]TenantStats{}
		}
		out[t] = TenantStats{Submitted: sub.Value(), Rejected: s.count.tenantRej.With(t).Value(),
			Done: s.count.tenantDone.With(t).Value()}
	})
	for _, q := range s.queue {
		if ts, ok := out[q.spec.Tenant]; ok {
			ts.Queued++
			out[q.spec.Tenant] = ts
		}
	}
	for _, j := range s.jobs {
		if ts, ok := out[j.spec.Tenant]; ok && j.state() == StateRunning {
			ts.Running++
			out[j.spec.Tenant] = ts
		}
	}
	return out
}

// Drain quiesces the scheduler for a graceful shutdown: dispatch stops,
// every running job is asked to preempt at its next update boundary, and
// Drain waits until no run remains in flight — each unwound run having
// durably spilled its checkpoint — before fsyncing the store. Queued and
// preempted jobs stay queued: with a store they re-enqueue on the next
// boot, and a Close following a completed Drain leaves them unfinalized
// instead of canceling them. Returns ctx.Err() if the context ends first
// (running jobs may then still be unwinding; Close cancels them).
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.draining = true
	for _, j := range s.jobs {
		if j.state() == StateRunning && !j.preempting {
			j.askPreempt()
		}
	}
	for {
		if _, busy := s.enginesLocked(); busy == 0 {
			break
		}
		if s.freed == nil {
			s.freed = make(chan struct{})
		}
		freed := s.freed
		s.mu.Unlock()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-freed:
		}
		s.mu.Lock()
	}
	s.mu.Unlock()
	if s.cfg.Store != nil {
		if err := s.cfg.Store.Sync(); err != nil {
			return fmt.Errorf("jobs: drain sync: %w", err)
		}
	}
	return nil
}

// Close cancels queued and running jobs, waits for runs to unwind, and
// closes every engine. It is idempotent.
func (s *Scheduler) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	if s.replicaStop != nil {
		close(s.replicaStop)
		s.replicaStop = nil
	}
	queued := s.queue
	s.queue = nil
	if !s.draining {
		// (a completed Drain instead leaves queued/preempted jobs for the
		// next boot: their submitted records and spilled checkpoints are
		// durable, so finalizing them would cancel work the store can resume)
		for _, j := range queued {
			// a fenced cancel only means the job is another replica's now
			_ = s.finalizeLocked(j, nil, context.Canceled)
		}
	}
	for _, j := range s.jobs {
		if j.state() == StateRunning {
			j.cancelRequested = true
			j.cancel()
		}
	}
	s.mu.Unlock()
	return s.closeEngines()
}

// closeEngines waits for every run and loop to unwind, then closes the
// pool. The scheduler is already marked closed.
func (s *Scheduler) closeEngines() error {
	s.wg.Wait()
	s.mu.Lock()
	slots := s.slots
	s.slots = nil
	s.mu.Unlock()
	var firstErr error
	for _, sl := range slots {
		if sl.eng != nil {
			if err := sl.eng.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// dispatchLocked pairs queued jobs with engines until no pairing remains.
// Affinity first: the earliest queued job whose dataset an idle engine
// already holds wins that engine, ahead of the queue head — bounded
// queue-jumping that saves a Release+Distribute. Otherwise the head job
// takes an empty engine, a lazily spun-up one, or the LRU idle engine.
// When the head would otherwise wait behind strictly-lower-priority work,
// the lowest-priority running job is preempted (checkpointed aside) to
// free its engine.
func (s *Scheduler) dispatchLocked() {
	for !s.closed && !s.draining && len(s.queue) > 0 {
		sl, j := s.pickLocked()
		if j == nil {
			s.maybePreemptLocked()
			return
		}
		if s.replica() && !s.claimLocked(j) {
			if j.remote {
				continue // lost the claim CAS; try the next queued job
			}
			return // store trouble: stop the round, the job stays queued
		}
		resumed := j.state() == StatePreempted
		if s.commitLocked(j, &store.Record{Type: store.TypeDispatched, Job: string(j.id), Updates: j.Updates}) != nil {
			// fenced between claim and dispatch: the job is someone else's
			s.yieldLocked(j)
			continue
		}
		s.removeFromQueueLocked(j)
		sl.busy = true
		j.engine = sl.id
		j.preempt = opt.NewPreemptSignal() // fresh per dispatch; Preempt targets it
		j.started = time.Now()
		wait := j.started.Sub(j.queued)
		s.queueWaitMax = max(s.queueWaitMax, wait)
		s.count.qWaitPrio.With(strconv.Itoa(j.spec.Priority)).ObserveDuration(wait)
		if t := j.spec.Tenant; t != "" {
			s.count.qWaitTenant.With(t).ObserveDuration(wait)
		}
		j.trace.Event("dispatched", "engine", sl.id,
			"wait_ms", float64(wait.Microseconds())/1000.0, "resumed", resumed)
		if resumed {
			s.emitLocked(j, EventResumed, "")
		} else {
			s.emitLocked(j, EventStarted, "")
		}
		s.wg.Add(1)
		go s.run(sl, j)
	}
}

// preemptGrace bounds how long an unanswered preemption blocks further
// preemption decisions: preemption is cooperative (the driver runtime
// polls Params.Preempt at update boundaries), so a custom solver that
// ignores the signal would otherwise pin the single-preemption-in-flight
// guard for its whole run. Past the grace the job is treated as
// non-cooperating: it no longer blocks, and is skipped as a victim.
const preemptGrace = 10 * time.Second

// maybePreemptLocked frees an engine for the queue head by preempting the
// lowest-priority running job whose priority is strictly below the head's.
// When no strict-priority victim exists but the head carries an SLO
// (Spec.SLOMillis) whose remaining slack has dropped below Config.SLOSlack,
// a running job with more slack (no deadline counts as infinite) and no
// higher priority is preempted instead — deadline-pressed work overtakes
// deadline-relaxed peers without violating the priority contract. At most
// one responsive preemption is in flight at a time: the freed engine
// re-enters dispatch when the preempted run unwinds, which re-evaluates the
// queue. SLO slack is evaluated at scheduling points only (submit, run
// unwind), not on a timer.
func (s *Scheduler) maybePreemptLocked() {
	if len(s.queue) == 0 || s.draining {
		return
	}
	head := s.queue[0]
	var candidates []*job
	for _, j := range s.jobs {
		if j.state() != StateRunning {
			continue
		}
		if j.preempting {
			if time.Since(j.preemptAsked) < preemptGrace {
				return // a preemption is already unwinding
			}
			continue // non-cooperating solver: don't re-pick, don't block
		}
		candidates = append(candidates, j)
	}
	var victim *job
	for _, j := range candidates {
		if j.spec.Priority >= head.spec.Priority {
			continue
		}
		if victim == nil || j.spec.Priority < victim.spec.Priority ||
			(j.spec.Priority == victim.spec.Priority && j.JobSeq > victim.JobSeq) {
			victim = j
		}
	}
	if victim == nil && !head.deadline.IsZero() {
		if slack := time.Until(head.deadline); slack < s.cfg.SLOSlack {
			victim = s.sloVictimLocked(head, slack, candidates)
		}
	}
	if victim == nil {
		return
	}
	victim.askPreempt()
}

// sloVictimLocked picks the running job with the most deadline slack that
// the pressed head may displace: priority no higher than the head's and
// slack strictly greater than the head's (ties yield the youngest, so the
// job with the least sunk work restarts).
func (s *Scheduler) sloVictimLocked(head *job, headSlack time.Duration, candidates []*job) *job {
	const infinite = time.Duration(1<<63 - 1)
	var victim *job
	var victimSlack time.Duration
	for _, j := range candidates {
		if j.spec.Priority > head.spec.Priority {
			continue
		}
		slack := infinite
		if !j.deadline.IsZero() {
			slack = time.Until(j.deadline)
		}
		if slack <= headSlack {
			continue // no better off than the head; displacing it gains nothing
		}
		if victim == nil || slack > victimSlack ||
			(slack == victimSlack && j.JobSeq > victim.JobSeq) {
			victim, victimSlack = j, slack
		}
	}
	return victim
}

func (s *Scheduler) pickLocked() (*slot, *job) {
	var idle []*slot
	for _, sl := range s.slots {
		if !sl.busy {
			idle = append(idle, sl)
		}
	}
	canGrow := len(s.slots) < s.cfg.Engines
	if len(idle) == 0 && !canGrow {
		return nil, nil
	}
	head := s.queue[0]
	// pass 1: dataset affinity — but never across a priority boundary
	// (Priority ordering is a contract, affinity only reorders FIFO ties)
	// and never more than maxQueueJumps times past the same head job, so
	// a stream of warm-dataset arrivals cannot starve it. The head's own
	// affinity match is always honoured: dispatching it starves nothing.
	for _, sl := range idle {
		if sl.dataKey != "" && sl.dataKey == head.dataKey {
			return sl, head
		}
	}
	if head.skipped < maxQueueJumps {
		for _, j := range s.queue[1:] {
			if j.spec.Priority < head.spec.Priority {
				break
			}
			for _, sl := range idle {
				if sl.dataKey != "" && sl.dataKey == j.dataKey {
					head.skipped++
					return sl, j
				}
			}
		}
	}
	// pass 2: head job onto an empty engine, a new engine, or the LRU
	j := head
	for _, sl := range idle {
		if sl.dataKey == "" {
			return sl, j
		}
	}
	if canGrow {
		sl := &slot{id: len(s.slots)}
		s.slots = append(s.slots, sl)
		return sl, j
	}
	best := idle[0]
	for _, sl := range idle[1:] {
		if sl.lastUsed < best.lastUsed {
			best = sl
		}
	}
	return best, j
}

// run executes one job on its assigned slot and re-enters dispatch. A
// preempted run re-queues with its checkpoint instead of finalizing.
func (s *Scheduler) run(sl *slot, j *job) {
	defer s.wg.Done()
	res, err := s.execute(sl, j)
	// capture the run's coordinator statistics while this goroutine still
	// owns the slot (the engine is quiescent between Solve and the release)
	var rs *async.RunStats
	if sl.eng != nil {
		rs = sl.eng.RunStats()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if rs != nil {
		j.runStats = rs
	}
	sl.busy = false
	s.useSeq++
	sl.lastUsed = s.useSeq
	if s.freed != nil {
		close(s.freed)
		s.freed = nil
	}
	// replica mode: before any state transition, confirm we still own the
	// job. A fenced run's outcome — success included — must be abandoned,
	// not finalized: the adopter owns the job's history now. leaseLost is
	// checked even with the lease cleared — mirroring a peer's terminal
	// record drops the lease while fencing us, and that unwind must still
	// abandon, not fall through to the preempt/retry branches on an
	// already-terminal job.
	if s.replica() && (j.leaseLost || j.lease.Epoch != 0) {
		lost := j.leaseLost
		if !lost {
			lease := j.lease
			s.mu.Unlock()
			_, rerr := s.cfg.Store.Renew(string(j.id), lease.Owner, lease.Epoch, s.cfg.LeaseTTL)
			s.mu.Lock()
			lost = j.leaseLost || errors.Is(rerr, store.ErrFenced)
		}
		if lost {
			s.count.fenced.Inc()
			s.abandonLocked(j)
			s.dispatchLocked()
			return
		}
	}
	var pe *opt.PreemptedError
	if errors.As(err, &pe) && !j.cancelRequested && !s.closed {
		if s.spillLocked(j, pe.Checkpoint, store.TypePreempted) != nil {
			s.abandonLocked(j) // the log refused the preemption: not our job
			s.dispatchLocked()
			return
		}
		j.preempting = false
		s.count.preempted.Inc()
		j.trace.Event("preempted", "updates", pe.Checkpoint.Updates, "preemptions", j.Preemptions)
		j.cp = pe.Checkpoint
		// the lease releases with the spill durable: any replica (this one
		// included) may re-claim the preempted job through the same CAS
		s.releaseLeaseLocked(j)
		s.requeueLocked(j) // queue-wait accounting restarts here
		ev := s.newEventLocked(j, EventPreempted, "")
		ev.Updates = pe.Checkpoint.Updates
		s.deliverLocked(j, ev)
		s.dispatchLocked()
		return
	}
	if errors.As(err, &pe) {
		// preempted but also canceled/closing: fold into cancellation
		err = context.Canceled
	}
	if err != nil && !j.cancelRequested && !errors.Is(err, context.Canceled) &&
		!errors.Is(err, opt.ErrDiverged) && // deterministic: a retry diverges again
		!errors.Is(err, core.ErrTaskFailed) && // so is a task that kept failing on the workers
		!s.closed && !s.draining && j.retries < j.spec.maxRetries() {
		// transient runtime failure with retry budget left: re-queue and
		// resume from the last durable checkpoint instead of failing
		j.retries++
		s.count.retried.Inc()
		j.trace.Event("retrying", "attempt", j.retries, "error", err.Error())
		s.releaseLeaseLocked(j)
		s.requeueLocked(j)
		s.emitLocked(j, EventQueued, fmt.Sprintf("retrying after: %v", err))
		s.dispatchLocked()
		return
	}
	// a fenced terminal append abandons the run inside finalizeLocked
	_ = s.finalizeLocked(j, res, err)
	s.dispatchLocked()
}

// execute runs outside the scheduler lock; it owns the slot while busy.
func (s *Scheduler) execute(sl *slot, j *job) (*async.Result, error) {
	if sl.eng == nil {
		eng, err := s.cfg.NewEngine(sl.id)
		if err != nil {
			return nil, fmt.Errorf("jobs: engine %d spin-up: %w", sl.id, err)
		}
		// Stats reads eng of busy slots too, so this write needs the lock
		s.mu.Lock()
		sl.eng = eng
		s.mu.Unlock()
	}
	if err := j.ctx.Err(); err != nil {
		return nil, err
	}
	ds, err := s.datasetFor(j.spec.Dataset)
	if err != nil {
		return nil, err
	}
	if sl.eng.Dataset() != ds {
		if err := sl.eng.Release(); err != nil {
			return nil, fmt.Errorf("jobs: engine %d release: %w", sl.id, err)
		}
		sl.dataKey = ""
		if _, err := sl.eng.Distribute(ds); err != nil {
			return nil, fmt.Errorf("jobs: engine %d distribute %s: %w", sl.id, j.dataKey, err)
		}
		sl.dataKey = j.dataKey
	}
	opts, err := j.spec.solveOptions(sl.eng.Workers())
	if err != nil {
		return nil, err
	}
	if j.spec.AutoFStar {
		fstar, err := s.fstarFor(j.spec.Dataset, j.spec.objective())
		if err != nil {
			return nil, err
		}
		opts.FStar = fstar
	}
	loss := opts.Params.Loss
	fstar := opts.FStar
	opts.Params.OnProgress = func(p opt.Progress) {
		s.progress(j, p, ds, loss, fstar)
	}
	// preemption + checkpoint plumbing: the dispatch-time signal (created
	// under the scheduler lock, so Preempt always has a target), the latest
	// capture retained on the job, and — after a preemption or a
	// resume_from submission — the driver state imported from the held
	// checkpoint
	s.mu.Lock()
	sig := j.preempt
	resume := j.cp
	s.mu.Unlock()
	opts.Params.Preempt = sig
	// run-scoped trace: the driver runtime adds its own lifecycle events
	// (run_start, checkpoint, ...) to the job's stream
	opts.Params.Trace = j.trace
	// always wired: it only fires when a cadence is active, which may come
	// from the spec or from an engine-level WithCheckpointEvery default
	opts.Params.OnCheckpoint = func(cp *opt.Checkpoint) {
		s.mu.Lock()
		if j.state() == StateRunning {
			// durable first (spill + checkpointed record), then visible:
			// Checkpoint/resume_from never serve state the log doesn't cover
			if s.spillLocked(j, cp, store.TypeCheckpointed) != nil {
				s.fenceRunningLocked(j) // refused: the lease is gone, stop the run
			} else {
				j.cp = cp
			}
		}
		s.mu.Unlock()
	}
	if resume != nil {
		opts.Params.Resume = resume
	}
	return sl.eng.Solve(j.ctx, j.spec.Algorithm, ds, opts)
}

// maxProgressEvalRows caps the dataset size for which progress events
// carry a live suboptimality: the evaluation runs synchronously on the
// solver driver goroutine, so on large datasets it would stall the solve
// loop at every snapshot. Beyond the cap, progress events report updates
// and elapsed time only (the final error still comes from the trace).
const maxProgressEvalRows = 50_000

// progress streams an in-run snapshot to the job's subscribers. The
// current suboptimality is evaluated driver-side against the full dataset,
// gated by maxProgressEvalRows.
func (s *Scheduler) progress(j *job, p opt.Progress, ds *dataset.Dataset, loss opt.Loss, fstar float64) {
	if loss == nil {
		loss = opt.LeastSquares{}
	}
	var errNow *float64
	if ds.NumRows() <= maxProgressEvalRows {
		errNow = finitePtr(opt.Objective(ds, loss, p.W) - fstar)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.state() != StateRunning {
		return
	}
	j.Updates = p.Updates
	if j.engine >= 0 && j.engine < len(s.slots) {
		if eng := s.slots[j.engine].eng; eng != nil {
			j.runStats = eng.RunStats()
		}
	}
	ev := s.newEventLocked(j, EventProgress, "")
	ev.Updates = p.Updates
	ev.Error = errNow
	ev.ElapsedMS = float64(p.Elapsed.Microseconds()) / 1000.0
	s.deliverLocked(j, ev)
}

// finalizeLocked commits the terminal record a finished run (or a cancel)
// calls for and, once the log has it, finishes the job. A fenced append
// means the job is another replica's: nothing is finalized or dropped, the
// run (if any) is abandoned, and the error is returned.
func (s *Scheduler) finalizeLocked(j *job, res *async.Result, err error) error {
	if j.Phase.Terminal() {
		return nil
	}
	rec := &store.Record{Job: string(j.id)}
	switch {
	case err == nil:
		rec.Type, rec.Updates = store.TypeDone, j.Updates
		if res != nil && res.Trace != nil {
			if fe := finitePtr(res.Trace.FinalError()); fe != nil {
				rec.FinalError, rec.HasFinal = *fe, true
			}
			if n := len(res.Trace.Points); n > 0 {
				rec.Updates = res.Trace.Points[n-1].Updates
			}
		}
	case j.cancelRequested || errors.Is(err, context.Canceled):
		rec.Type, rec.Detail = store.TypeCanceled, err.Error()
	default:
		rec.Type, rec.Detail = store.TypeFailed, err.Error()
	}
	if cerr := s.commitLocked(j, rec); cerr != nil {
		if j.engine >= 0 {
			s.abandonLocked(j)
		} else {
			s.yieldLocked(j)
		}
		return cerr
	}
	if j.Phase == store.PhaseDone {
		j.result = res
		if j.runStats != nil {
			j.wait = &j.runStats.Wait // captured by run() with the run's statistics
		}
	}
	s.countOutcomeLocked(j)
	j.lease = store.Lease{} // the terminal record cleared it store-side
	if s.cfg.Store != nil {
		if err := s.cfg.Store.DropJob(string(j.id)); err != nil {
			s.count.storeErrs.Inc()
		}
	}
	s.finishLocked(j)
	return nil
}

// finishLocked is the tail every job that reached a terminal phase goes
// through, whoever wrote the record — this replica, a previous process
// (boot replay) or a peer (tail mirroring): it leaves the queue, its
// context ends, the terminal event goes out, subscriptions and the done
// channel close, and the retention limit applies.
func (s *Scheduler) finishLocked(j *job) {
	s.removeFromQueueLocked(j)
	j.cancel()
	typ := EventType(j.state())
	j.trace.Event(string(typ), "updates", j.Updates, "message", j.Detail, "owner", j.Owner)
	ev := s.newEventLocked(j, typ, j.Detail)
	ev.Updates = j.Updates
	if j.HasFinal {
		ev.Error = finitePtr(j.FinalError)
	}
	ev.Wait = j.wait
	s.deliverLocked(j, ev)
	for _, ch := range j.subs {
		close(ch)
	}
	j.subs = nil
	close(j.done)
	s.terminal = append(s.terminal, j.id)
	for len(s.terminal) > s.cfg.Retention {
		delete(s.jobs, s.terminal[0])
		s.terminal = s.terminal[1:]
	}
}

func (s *Scheduler) newEventLocked(j *job, typ EventType, msg string) Event {
	j.eventSeq++
	return Event{Job: j.id, Seq: j.eventSeq, Type: typ, State: j.state(), Message: msg}
}

func (s *Scheduler) emitLocked(j *job, typ EventType, msg string) {
	s.deliverLocked(j, s.newEventLocked(j, typ, msg))
}

func (s *Scheduler) deliverLocked(j *job, ev Event) {
	j.events = append(j.events, ev)
	if len(j.events) > maxEventHistory {
		j.events = j.events[1:]
	}
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default: // lagging subscriber: drop rather than block the driver
		}
	}
}

// dsEntry caches one generated dataset and its lazily computed reference
// optimum. Generation runs under the entry's own once, so two jobs needing
// different datasets never serialize on the cache lock — only same-key
// requests wait for each other.
type dsEntry struct {
	genOnce sync.Once
	d       *dataset.Dataset
	genErr  error

	fMu    sync.Mutex
	fstars map[string]refOpt // keyed by the objective's canonical Key
}

// refOpt memoizes one objective's reference optimum on a dataset.
type refOpt struct {
	fstar float64
	err   error
}

func (en *dsEntry) dataset(spec DatasetSpec) (*dataset.Dataset, error) {
	en.genOnce.Do(func() {
		cfg, err := spec.config()
		if err != nil {
			en.genErr = err
			return
		}
		en.d, en.genErr = dataset.Generate(cfg)
	})
	return en.d, en.genErr
}

func (en *dsEntry) refOptimum(spec DatasetSpec, obj async.Objective) (float64, error) {
	d, err := en.dataset(spec)
	if err != nil {
		return 0, err
	}
	loss, err := obj.Resolve()
	if err != nil {
		return 0, err
	}
	key := obj.Key()
	en.fMu.Lock()
	defer en.fMu.Unlock()
	if en.fstars == nil {
		en.fstars = map[string]refOpt{}
	}
	r, ok := en.fstars[key]
	if !ok {
		// ReferenceOptimumFor dispatches: plain least squares solves the
		// normal equations exactly; composite/logistic objectives run the
		// accelerated prox-gradient reference solve
		_, r.fstar, r.err = opt.ReferenceOptimumFor(d, loss)
		en.fstars[key] = r
	}
	return r.fstar, r.err
}

// entryFor returns the cache entry for a spec's key, creating it and
// applying the LRU bound under the cache lock (generation itself happens
// outside the lock, in the entry's once). Evicting an in-use dataset is
// safe: running jobs hold their own pointer, and a regenerated dataset
// merely forces one redistribution on its next use (Distribute keys on
// pointer identity, which is also what affinity routing relies on).
func (s *Scheduler) entryFor(spec DatasetSpec) *dsEntry {
	key := spec.Key()
	s.dsMu.Lock()
	defer s.dsMu.Unlock()
	en, ok := s.dsCache[key]
	if !ok {
		en = &dsEntry{}
		s.dsCache[key] = en
		s.dsOrder = append(s.dsOrder, key)
		for len(s.dsOrder) > s.cfg.DatasetCache {
			delete(s.dsCache, s.dsOrder[0])
			s.dsOrder = s.dsOrder[1:]
		}
		return en
	}
	for i, k := range s.dsOrder {
		if k == key {
			s.dsOrder = append(append(s.dsOrder[:i], s.dsOrder[i+1:]...), key)
			break
		}
	}
	return en
}

// datasetFor returns the shared in-memory dataset for a spec, generating
// it on first use.
func (s *Scheduler) datasetFor(spec DatasetSpec) (*dataset.Dataset, error) {
	return s.entryFor(spec).dataset(spec)
}

// fstarFor computes (once per cached dataset and objective) the reference
// optimum used when a spec asks for AutoFStar.
func (s *Scheduler) fstarFor(spec DatasetSpec, obj async.Objective) (float64, error) {
	return s.entryFor(spec).refOptimum(spec, obj)
}
