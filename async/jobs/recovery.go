package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/async/jobs/store"
	"repro/internal/opt"
)

// decodeSpec parses the spec a submitted record carries.
func decodeSpec(rec *store.Record) (Spec, error) {
	var spec Spec
	if err := json.Unmarshal(rec.Spec, &spec); err != nil {
		return Spec{}, fmt.Errorf("job %s spec: %w", rec.Job, err)
	}
	return spec, nil
}

// replayLocked folds the store's log straight into jobs: a submitted
// record opens a job, every later record goes through its Apply. Nothing
// but s.jobs and the tail watermark changes; the jobs come back in
// submission order. The replay goes through the watermarked tail reader so
// a replica's tail-scan loop starts exactly where recovery stopped.
func (s *Scheduler) replayLocked() ([]*job, error) {
	wm, err := s.cfg.Store.ReplaySince(store.Watermark{}, func(rec store.Record) error {
		if j := s.jobs[ID(rec.Job)]; j != nil {
			if !j.Apply(&rec) || rec.Type != store.TypeSubmitted {
				return nil
			}
			// a repeated submitted the fold accepted (a resubmission whose
			// first ack was lost): the job re-opens from it, below
		} else if rec.Type != store.TypeSubmitted {
			// orphan transition (its submit was compacted away with a
			// terminal record the retention limit then dropped): skip
			return nil
		}
		spec, err := decodeSpec(&rec)
		if err != nil {
			return fmt.Errorf("jobs: recovery: %w", err)
		}
		s.jobs[ID(rec.Job)] = newJob(&rec, spec)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("jobs: recovery replay: %w", err)
	}
	s.wm = wm
	// submission order, so queue FIFO-within-priority and the ID sequence
	// both restore deterministically
	return s.orderedLocked(), nil
}

// recover rebuilds the scheduler from the store's log: terminal jobs
// reload into the retention store, queued jobs re-enqueue in priority/FIFO
// order, and jobs that were running or preempted at the crash re-enqueue
// with their last durable checkpoint — they resume through the normal
// Params.Resume path, losing at most CheckpointEvery updates. Called once
// from New, before the scheduler serves.
func (s *Scheduler) recover() error {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	order, err := s.replayLocked()
	if err != nil {
		return err
	}
	var terminal []*job
	for _, j := range order {
		if j.JobSeq > s.seq {
			s.seq = j.JobSeq
		}
		j.trace.Event("recovered", "state", string(j.state()), "updates", j.Updates,
			"preemptions", j.Preemptions)
		// rebuild the serving counters the log proves: every replayed job was
		// once accepted, and terminal records pin their outcome. Without this
		// the Prometheus counters would reset to zero on every restart while
		// the job listing still showed the finished work. Jobs that fail
		// during rebuild (stale spec) are counted by finalizeLocked itself.
		s.count.submitted.Inc()
		s.count.byTenant(s.count.tenantSub, j.spec.Tenant).Inc()
		s.count.preempted.Add(int64(j.Preemptions))
		s.countOutcomeLocked(j)
		if j.Phase.Terminal() {
			terminal = append(terminal, j)
			continue
		}
		// non-terminal: validate the spec against this process's registry and
		// catalog; a job whose algorithm no longer resolves fails loudly
		// instead of wedging the queue
		if err := j.spec.normalize(); err != nil {
			_ = s.finalizeLocked(j, nil, fmt.Errorf("recovery: %w", err))
			continue
		}
		s.requeueLocked(j)
		s.emitLocked(j, EventQueued, "")
		if !j.HasCp {
			continue
		}
		// resumes through the normal preempted path; a missing or corrupt
		// spill restarts the job from scratch rather than refusing to serve
		// it (work since update 0 is lost, which the log can only ever
		// under-state, never invent)
		if j.cp, err = s.cfg.Store.LoadCheckpoint(string(j.id), j.CpSeq); err != nil {
			s.count.storeErrs.Inc()
			continue
		}
		s.emitLocked(j, EventPreempted, "recovered")
	}
	// retention order is completion order
	sort.SliceStable(terminal, func(a, b int) bool { return terminal[a].Finished < terminal[b].Finished })
	for _, j := range terminal {
		s.finishLocked(j)
	}
	s.count.recovered.SetInt(int64(len(s.jobs)))
	// replica mode: jobs whose live lease another replica holds are
	// mirrors, not local work — pull them back out of the queue. Expired
	// foreign leases mark adoption candidates (the failover latency
	// anchors to the expiry instant). Our own pre-crash leases need no
	// handling: the jobs re-enqueued above and re-claim through the CAS,
	// which bumps the epoch past the stale one.
	if s.replica() {
		if leases, lerr := s.cfg.Store.Leases(); lerr == nil {
			now := time.Now()
			for _, l := range leases {
				j, ok := s.jobs[ID(l.Job)]
				if !ok || j.Phase.Terminal() || l.Owner == s.cfg.ReplicaID {
					continue
				}
				if l.Live(now) {
					s.yieldLocked(j)
					j.remoteOwner = l.Owner
				} else if j.orphanedAt.IsZero() {
					j.orphanedAt = time.Unix(0, l.ExpiresAt)
				}
			}
		} else {
			s.count.storeErrs.Inc()
		}
	}
	// recovery ends with a compaction — in single-owner mode only: the
	// rebuilt state is the live set and the old log (torn tail included)
	// is rewritten to exactly it. A replica must never rewrite the shared
	// log around its peers' live jobs; a replica handle self-compacts from
	// the full log instead.
	if !s.replica() {
		if err := s.compactLocked(); err != nil {
			return fmt.Errorf("jobs: post-recovery compaction: %w", err)
		}
	}
	s.count.recoverySec.Set(time.Since(start).Seconds())
	s.dispatchLocked()
	return nil
}

// snapshotRecordsLocked is the compaction snapshot: the Records of every
// held job's fold, in submission order. Replaying it reproduces exactly the
// scheduler's recoverable state.
func (s *Scheduler) snapshotRecordsLocked() []*store.Record {
	recs := make([]*store.Record, 0, 2*len(s.jobs))
	for _, j := range s.orderedLocked() {
		recs = append(recs, j.Records(string(j.id))...)
	}
	return recs
}

// compactLocked rewrites the store's log to the live set. Called under the
// scheduler lock (compaction must not race appends that would then be lost
// by the rewrite).
func (s *Scheduler) compactLocked() error {
	return s.cfg.Store.Compact(s.snapshotRecordsLocked())
}

// spillLocked durably saves a checkpoint keyed by its dispatch_seq and then
// commits the record (TypeCheckpointed or TypePreempted) that references
// it — spill strictly first, so the log never names a spill that is not on
// disk. A failed spill is counted and the job keeps serving from memory,
// its record uncommitted; the error returned is commitLocked's.
func (s *Scheduler) spillLocked(j *job, cp *opt.Checkpoint, typ store.Type) error {
	seq := cp.Int("dispatch_seq")
	if s.cfg.Store != nil {
		if err := s.cfg.Store.SaveCheckpoint(string(j.id), seq, cp); err != nil {
			s.count.storeErrs.Inc()
			return nil
		}
	}
	return s.commitLocked(j, &store.Record{Type: typ, Job: string(j.id), Updates: cp.Updates, DispatchSeq: seq})
}

// commitLocked is the one way this replica moves a job: stamp the record
// with the job's fencing token, append it, fold it. A fenced append
// (store.ErrFenced: the lease is gone, or the job already has its terminal
// record) is returned with the job untouched — the caller gives the job
// up. Any other store error degrades durability, not service: the record
// is folded and serving continues (appendLocked counts the failure).
// Without a store the fold is all there is. Compaction triggers here, after
// the fold, so the snapshot includes the record just committed.
func (s *Scheduler) commitLocked(j *job, rec *store.Record) error {
	if j.lease.Epoch != 0 {
		rec.Owner, rec.Epoch = j.lease.Owner, j.lease.Epoch
	}
	err := s.appendLocked(rec)
	if errors.Is(err, store.ErrFenced) {
		return err
	}
	j.Apply(rec)
	// a replica never rewrites the shared log around its peers' live jobs;
	// a replica handle self-compacts past its own threshold instead
	if err == nil && s.cfg.Store != nil && !s.replica() &&
		s.cfg.Store.Metrics().AppendsSinceCompact >= int64(s.cfg.CompactEvery) {
		if err := s.compactLocked(); err != nil {
			s.count.storeErrs.Inc()
		}
	}
	return nil
}

// appendLocked stamps and appends one record (a no-op without a store),
// counting failures and surfacing them through Stats/metrics: a fenced
// append is a stale fencing token, not a sick disk, so only other errors
// mark the scheduler degraded.
func (s *Scheduler) appendLocked(rec *store.Record) error {
	if rec.Time == 0 {
		rec.Time = time.Now().UnixNano()
	}
	if s.cfg.Store == nil {
		return nil
	}
	err := s.cfg.Store.Append(rec)
	switch {
	case err == nil:
		s.degraded = false
	case errors.Is(err, store.ErrFenced):
		s.count.storeErrs.Inc()
		s.count.fenced.Inc()
	default:
		s.count.storeErrs.Inc()
		s.degraded = true
	}
	return err
}
