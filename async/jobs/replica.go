package jobs

import (
	"context"
	"errors"
	"time"

	"repro/async/jobs/store"
)

// Replica mode: several schedulers share one log, each through its own
// replica handle of the WAL (store.OpenShared on a common directory). Every
// job is claimed through the store's lease CAS before it dispatches, every
// ownership-asserting append carries the claim's (owner, epoch) fencing
// token, and two background loops keep the replicas coherent:
//
//   - the heartbeat renews held leases every Config.RenewEvery; a renewal
//     that comes back ErrFenced (or cannot reach the store while the lease
//     is about to lapse) self-fences the run — it is canceled and its
//     outcome abandoned, because an adopter owns the job's history now;
//   - the tail scan replays the shared log past the local watermark every
//     Config.AdoptScanEvery, importing other replicas' submissions as
//     claimable queue entries, marking claimed jobs remote, mirroring
//     their checkpoints and terminal records, and re-enqueueing jobs whose
//     lease expired (orphans) so the claim CAS arbitrates adoption.
//
// Safety rests entirely on the store's fencing: a partitioned replica that
// keeps running past its lease expiry has every subsequent append rejected
// with ErrFenced, so at most one replica's records for a job land after
// failover, and epochs for a job strictly increase across owners.

// replica reports whether the scheduler serves in replica mode.
func (s *Scheduler) replica() bool { return s.cfg.ReplicaID != "" }

// startReplicaLoops launches the heartbeat and tail-scan goroutines.
// Called once from New, after recovery.
func (s *Scheduler) startReplicaLoops() {
	s.replicaStop = make(chan struct{})
	s.wg.Add(2)
	go s.every(s.cfg.RenewEvery, s.replicaStop, s.renewHeldLeases)
	go s.every(s.cfg.AdoptScanEvery, s.replicaStop, func() {
		s.syncTail()
		s.adoptOrphans()
	})
}

// every runs fn each period until stop closes.
func (s *Scheduler) every(period time.Duration, stop <-chan struct{}, fn func()) {
	defer s.wg.Done()
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			fn()
		}
	}
}

// claimLocked runs the lease CAS for a job about to dispatch. On
// ErrLeaseHeld (another replica won it) or ErrFenced (the log already holds
// its terminal record) the job is marked remote and leaves the queue; on
// store trouble the job stays queued for the next round. A successful
// claim of an adoption candidate loads the orphan's last spilled checkpoint
// and records the failover latency.
func (s *Scheduler) claimLocked(j *job) bool {
	l, err := s.cfg.Store.Claim(string(j.id), s.cfg.ReplicaID, s.cfg.LeaseTTL)
	switch {
	case errors.Is(err, store.ErrLeaseHeld), errors.Is(err, store.ErrFenced):
		s.yieldLocked(j)
		return false
	case err != nil:
		s.count.storeErrs.Inc()
		s.degraded = true
		return false
	}
	s.degraded = false
	j.lease, j.leaseLost = l, false
	j.remote, j.remoteOwner = false, ""
	if !j.orphanedAt.IsZero() {
		lat := time.Since(j.orphanedAt)
		j.orphanedAt = time.Time{}
		s.count.adopted.Inc()
		if lat > 0 {
			s.count.failover.ObserveDuration(lat)
		}
		j.trace.Event("adopted", "epoch", l.Epoch,
			"failover_ms", float64(lat.Microseconds())/1000.0)
	}
	if j.cp == nil && j.HasCp {
		// adopted (or tail-mirrored) checkpoint: pull the spill so the run
		// resumes from it instead of update 0
		if cp, err := s.cfg.Store.LoadCheckpoint(string(j.id), j.CpSeq); err == nil {
			j.cp = cp
		} else {
			s.count.storeErrs.Inc()
		}
	}
	return true
}

// releaseLeaseLocked ends the job's lease (preemption, retry): the spilled
// checkpoint is durable, so any replica — this one included — may re-claim
// the job through the CAS.
func (s *Scheduler) releaseLeaseLocked(j *job) {
	if j.lease.Epoch == 0 {
		return
	}
	lease := j.lease
	j.lease = store.Lease{}
	if err := s.cfg.Store.Release(string(j.id), lease.Owner, lease.Epoch); err != nil &&
		!errors.Is(err, store.ErrFenced) {
		s.count.storeErrs.Inc()
	}
}

// fenceRunningLocked marks a running job's lease lost and cancels its run;
// the unwind path then abandons the outcome instead of finalizing it.
func (s *Scheduler) fenceRunningLocked(j *job) {
	if j.leaseLost || j.state() != StateRunning {
		return
	}
	j.leaseLost = true
	j.cancel()
}

// yieldLocked gives a waiting job up to the replica the log says owns it:
// it leaves the queue and is mirrored from the tail from now on. If no
// owner ever finishes it, the orphan scan flips it back to claimable.
func (s *Scheduler) yieldLocked(j *job) {
	s.removeFromQueueLocked(j)
	j.lease = store.Lease{}
	j.remote = true
}

// abandonLocked discards a fenced run's outcome: the job's durable history
// belongs to its adopter now, so nothing is appended, released, or
// finalized here — the job is yielded.
func (s *Scheduler) abandonLocked(j *job) {
	if j.Phase.Terminal() {
		// a peer's terminal record was mirrored while run() had mu released
		// (its ownership Renew runs unlocked): that is the truth, and the
		// job is already finished
		return
	}
	j.preempting = false
	j.engine = -1
	j.leaseLost = false
	j.cancelRequested = false
	// the run context is spent (the self-fence canceled it); a future
	// re-adoption needs a fresh one
	j.cancel()
	j.ctx, j.cancel = context.WithCancel(context.Background())
	s.yieldLocked(j)
	j.trace.Event("abandoned", "reason", "lease lost")
	s.emitLocked(j, EventPreempted, "lease lost; run abandoned")
}

// requeueLocked puts a job that is not running (any more) into the waiting
// queue and restarts its queue-wait clock. Whether it waits as queued or
// as preempted is not decided here: state() reads it off the job's records
// and checkpoint.
func (s *Scheduler) requeueLocked(j *job) {
	j.engine = -1
	j.queued = time.Now()
	if !s.inQueueLocked(j) {
		s.enqueueLocked(j)
	}
}

// renewHeldLeases extends every lease this replica holds. The store calls
// run outside the scheduler lock; per-job state is re-checked under it.
func (s *Scheduler) renewHeldLeases() {
	type held struct {
		j     *job
		lease store.Lease
	}
	s.mu.Lock()
	var hs []held
	for _, j := range s.jobs {
		if j.state() == StateRunning && !j.leaseLost && j.lease.Epoch != 0 {
			hs = append(hs, held{j, j.lease})
		}
	}
	s.mu.Unlock()
	for _, h := range hs {
		l, err := s.cfg.Store.Renew(string(h.j.id), h.lease.Owner, h.lease.Epoch, s.cfg.LeaseTTL)
		s.mu.Lock()
		switch {
		case err == nil:
			s.degraded = false
			if h.j.lease.Epoch == h.lease.Epoch {
				h.j.lease = l
			}
		case errors.Is(err, store.ErrFenced):
			// ownership is gone (expiry + adoption, or a newer claim):
			// self-fence now so the run stops burning its update budget
			s.fenceRunningLocked(h.j)
		default:
			s.count.storeErrs.Inc()
			s.degraded = true
			if time.Until(time.Unix(0, h.lease.ExpiresAt)) < s.cfg.RenewEvery {
				// the store is unreachable and the lease will lapse before
				// the next heartbeat: assume an adopter exists
				s.fenceRunningLocked(h.j)
			}
		}
		s.mu.Unlock()
	}
}

// syncTail replays the shared log past the local watermark and folds the
// other replicas' records into local state.
func (s *Scheduler) syncTail() {
	var recs []store.Record
	wm, err := s.cfg.Store.ReplaySince(s.wm, func(r store.Record) error {
		recs = append(recs, r)
		return nil
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.count.storeErrs.Inc()
		return
	}
	s.wm = wm
	if s.closed {
		return
	}
	for i := range recs {
		s.applyRemoteLocked(&recs[i])
	}
	s.dispatchLocked()
}

// applyRemoteLocked mirrors one shared-log record: the job's fold takes
// the record, and what is left here are the replica-side effects — queue
// membership, the remote flag, self-fencing. Records this replica wrote
// itself are skipped (the commit already folded them), and while this
// replica holds the job's lease a foreign record is either stale or proof
// that it was displaced.
func (s *Scheduler) applyRemoteLocked(rec *store.Record) {
	j := s.jobs[ID(rec.Job)]
	switch {
	case rec.Type == store.TypeSubmitted:
		if j == nil {
			s.importRemoteSubmitLocked(rec)
		}
		return // a known job keeps the submission it was built from
	case j == nil || rec.Owner == s.cfg.ReplicaID:
		return
	}
	if held := j.lease.Epoch != 0 && !j.leaseLost; held && !rec.Type.Terminal() {
		if rec.Type == store.TypeClaimed && rec.Epoch > j.lease.Epoch {
			// the log proves a newer claim displaced ours
			s.fenceRunningLocked(j)
		}
		return
	}
	if !j.Apply(rec) {
		return // the job is already terminal
	}
	switch rec.Type {
	case store.TypeClaimed:
		s.yieldLocked(j)
		j.remoteOwner = rec.Owner
	case store.TypeCheckpointed, store.TypePreempted:
		j.cp = nil // stale local capture; reload from the spill on adoption
	case store.TypeReleased:
		// the owner let go (preemption, retry), or a compaction recorded
		// that nobody holds the job: it is claimable again
		if j.remote {
			j.remote, j.remoteOwner = false, ""
			s.requeueLocked(j)
		}
	case store.TypeDone, store.TypeFailed, store.TypeCanceled:
		// local bookkeeping only — no store appends and no completion
		// counters (the owner counted the outcome), but waiters unblock and
		// subscribers see the terminal event exactly as if the job had
		// finished here
		if j.engine >= 0 {
			// we believed the run was ours; the foreign terminal record
			// proves otherwise. finishLocked cancels it, and leaseLost sends
			// its unwind down the abandon path, which backs off on the
			// terminal phase
			j.leaseLost = true
			j.engine = -1
		}
		j.lease = store.Lease{}
		j.remote, j.remoteOwner = true, rec.Owner
		s.finishLocked(j)
	}
}

// importRemoteSubmitLocked builds a claimable local job from another
// replica's Submitted record. The job enters the queue like any other —
// whichever replica's dispatch wins the claim CAS runs it, which is how a
// second replica adds throughput. A spec that does not validate against
// this process's registry is left to its home replica.
func (s *Scheduler) importRemoteSubmitLocked(rec *store.Record) {
	if len(s.queue) >= s.cfg.QueueDepth {
		// same admission bound as Submit: a burst on one replica must not
		// grow every replica's queue without limit — over-limit imports
		// stay with their home replica
		return
	}
	spec, err := decodeSpec(rec)
	if err != nil {
		s.count.storeErrs.Inc()
		return
	}
	if err := spec.normalize(); err != nil {
		return
	}
	j := newJob(rec, spec)
	s.count.byTenant(s.count.tenantSub, spec.Tenant) // listed like a local tenant
	j.trace.Event("imported", "algorithm", spec.Algorithm, "tenant", spec.Tenant)
	s.jobs[j.id] = j
	s.requeueLocked(j)
	s.emitLocked(j, EventQueued, "imported from shared log")
}

// adoptOrphans scans the lease table for expired leases on non-terminal
// jobs and re-enqueues them as claimable: the next dispatch round's claim
// CAS (on whichever replica gets there first) adopts them, resuming from
// the orphan's last spilled checkpoint. Live foreign leases the tail scan
// has not seen yet mark jobs remote.
func (s *Scheduler) adoptOrphans() {
	leases, err := s.cfg.Store.Leases()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.count.storeErrs.Inc()
		return
	}
	if s.closed || s.draining {
		return
	}
	now := time.Now()
	dispatch := false
	for _, l := range leases {
		j, ok := s.jobs[ID(l.Job)]
		if !ok || j.Phase.Terminal() {
			continue
		}
		if l.Live(now) {
			if l.Owner != s.cfg.ReplicaID && !j.remote && j.engine < 0 {
				s.yieldLocked(j)
				j.remoteOwner = l.Owner
			}
			continue
		}
		if j.engine >= 0 {
			continue // our own expiring run; the heartbeat handles it
		}
		if s.inQueueLocked(j) {
			if j.orphanedAt.IsZero() {
				j.orphanedAt = time.Unix(0, l.ExpiresAt)
			}
			continue
		}
		j.remote, j.remoteOwner = false, ""
		j.orphanedAt = time.Unix(0, l.ExpiresAt)
		s.requeueLocked(j)
		j.trace.Event("orphaned", "expired_owner", l.Owner, "epoch", l.Epoch)
		s.emitLocked(j, EventQueued, "lease expired; adoptable")
		dispatch = true
	}
	if dispatch {
		s.dispatchLocked()
	}
}

// inQueueLocked reports whether the job is in the waiting queue.
func (s *Scheduler) inQueueLocked(j *job) bool {
	for _, q := range s.queue {
		if q == j {
			return true
		}
	}
	return false
}

// Kill terminates the scheduler the way a crash would: runs are canceled
// and engines close, but nothing is finalized, released, or appended — the
// store keeps the pre-crash picture, live leases included, which is
// exactly what a surviving replica fails over from. Chaos/testing hook; a
// killed scheduler is closed for every other purpose.
func (s *Scheduler) Kill() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.replicaStop != nil {
		close(s.replicaStop)
		s.replicaStop = nil
	}
	s.queue = nil
	for _, j := range s.jobs {
		if j.state() == StateRunning {
			if s.replica() {
				j.leaseLost = true // unwind abandons instead of finalizing
			} else {
				j.cancelRequested = true
			}
			j.cancel()
		}
	}
	s.mu.Unlock()
	_ = s.closeEngines() // a crash reports nothing
}
