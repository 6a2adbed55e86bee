// Package faulty wraps a WAL handle with deterministic, seed-driven fault
// injection for chaos testing: fail/stall/torn-write on the Nth append,
// dropped acks, fsync errors, and whole-replica pauses that force lease
// expiry. Every fault fires at an exact operation count (or from a seeded
// PRNG), so a failing chaos run replays bit-for-bit from its seed.
package faulty

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"repro/async/jobs/store"
	"repro/internal/opt"
)

// ErrInjected is returned by operations a Plan chose to fail. It is
// distinct from real store errors so tests can assert the failure path
// they provoked is the one that fired.
var ErrInjected = errors.New("faulty: injected store error")

// Plan describes which faults fire and when. All counts are 1-based
// operation ordinals on this wrapper; zero disables the fault.
type Plan struct {
	// Seed drives the probabilistic faults. Two wrappers with equal plans
	// and seeds inject identically.
	Seed int64
	// FailAppendN makes the Nth append return ErrInjected without writing.
	FailAppendN int64
	// DropAckAppendN makes the Nth append write durably but still return
	// ErrInjected — the "ack lost" crash window.
	DropAckAppendN int64
	// TornAppendN tears the Nth append mid-record via the inner store's
	// crash failpoint (the store goes dead afterwards, like kill -9).
	TornAppendN int64
	// StallAppendN stalls the Nth append for StallFor before performing it
	// (a hung disk; with StallFor past the lease TTL, a lease-loss window).
	StallAppendN int64
	StallFor     time.Duration
	// AppendFailProb fails each append independently with this probability,
	// drawn from Seed.
	AppendFailProb float64
	// FailSyncN makes the Nth Sync return ErrInjected.
	FailSyncN int64
}

// Store wraps a WAL handle with the Plan's faults. It implements
// store.Store; Pause/Resume additionally freeze every operation to simulate
// a partitioned or GC-stalled replica.
type Store struct {
	inner *store.WAL
	plan  Plan

	mu       sync.Mutex
	cond     *sync.Cond
	paused   bool
	rng      *rand.Rand
	appends  int64
	syncs    int64
	injected int64
}

// Wrap builds the fault-injecting wrapper around inner. If the plan tears
// an append, inner's crash failpoint is armed here.
func Wrap(inner *store.WAL, plan Plan) *Store {
	f := &Store{inner: inner, plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
	f.cond = sync.NewCond(&f.mu)
	if plan.TornAppendN > 0 {
		inner.FailAfterAppends(plan.TornAppendN - 1)
	}
	return f
}

// Pause freezes the wrapper: every subsequent operation blocks until
// Resume. A paused replica cannot renew its leases — exactly the
// partition/stop-the-world failure leases exist to fence.
func (f *Store) Pause() {
	f.mu.Lock()
	f.paused = true
	f.mu.Unlock()
}

// Resume unfreezes the wrapper and wakes blocked operations.
func (f *Store) Resume() {
	f.mu.Lock()
	f.paused = false
	f.cond.Broadcast()
	f.mu.Unlock()
}

// Injected reports how many operations the plan failed so far.
func (f *Store) Injected() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// gate blocks while paused.
func (f *Store) gate() {
	f.mu.Lock()
	for f.paused {
		f.cond.Wait()
	}
	f.mu.Unlock()
}

// appendFault decides the current append's fate: returns (stall, drop,
// fail) where fail short-circuits before the write and drop fails after
// it.
func (f *Store) appendFault() (stall bool, drop bool, fail bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.appends++
	n := f.appends
	if f.plan.AppendFailProb > 0 && f.rng.Float64() < f.plan.AppendFailProb {
		f.injected++
		return false, false, true
	}
	if n == f.plan.FailAppendN {
		f.injected++
		return false, false, true
	}
	if n == f.plan.DropAckAppendN {
		f.injected++
		return n == f.plan.StallAppendN, true, false
	}
	return n == f.plan.StallAppendN, false, false
}

// Append applies the plan's append faults around the inner append.
func (f *Store) Append(rec *store.Record) error {
	f.gate()
	stall, drop, fail := f.appendFault()
	if stall && f.plan.StallFor > 0 {
		time.Sleep(f.plan.StallFor)
		f.gate() // a stalled replica may have been paused meanwhile
	}
	if fail {
		return ErrInjected
	}
	if err := f.inner.Append(rec); err != nil {
		return err
	}
	if drop {
		return ErrInjected
	}
	return nil
}

// Sync applies FailSyncN around the inner fsync.
func (f *Store) Sync() error {
	f.gate()
	f.mu.Lock()
	f.syncs++
	fail := f.syncs == f.plan.FailSyncN
	if fail {
		f.injected++
	}
	f.mu.Unlock()
	if fail {
		return ErrInjected
	}
	return f.inner.Sync()
}

// The rest of the surface delegates through the pause gate unchanged.

func (f *Store) Replay(fn func(store.Record) error) error { f.gate(); return f.inner.Replay(fn) }

func (f *Store) SaveCheckpoint(job string, dispatchSeq int64, cp *opt.Checkpoint) error {
	f.gate()
	return f.inner.SaveCheckpoint(job, dispatchSeq, cp)
}

func (f *Store) LoadCheckpoint(job string, dispatchSeq int64) (*opt.Checkpoint, error) {
	f.gate()
	return f.inner.LoadCheckpoint(job, dispatchSeq)
}

func (f *Store) DropJob(job string) error { f.gate(); return f.inner.DropJob(job) }

func (f *Store) Compact(snapshot []*store.Record) error { f.gate(); return f.inner.Compact(snapshot) }

func (f *Store) Metrics() store.Metrics { return f.inner.Metrics() }

func (f *Store) Close() error { return f.inner.Close() }

func (f *Store) Claim(job, owner string, ttl time.Duration) (store.Lease, error) {
	f.gate()
	return f.inner.Claim(job, owner, ttl)
}

func (f *Store) Renew(job, owner string, epoch int64, ttl time.Duration) (store.Lease, error) {
	f.gate()
	return f.inner.Renew(job, owner, epoch, ttl)
}

func (f *Store) Release(job, owner string, epoch int64) error {
	f.gate()
	return f.inner.Release(job, owner, epoch)
}

func (f *Store) Leases() ([]store.Lease, error) { f.gate(); return f.inner.Leases() }

func (f *Store) ReplaySince(w store.Watermark, fn func(store.Record) error) (store.Watermark, error) {
	f.gate()
	return f.inner.ReplaySince(w, fn)
}
