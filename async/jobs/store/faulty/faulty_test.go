package faulty

import (
	"errors"
	"testing"
	"time"

	"repro/async/jobs/store"
	"repro/internal/la"
	"repro/internal/opt"
)

// openWAL opens a sole-owner WAL handle on a fresh directory, closed when
// the test ends.
func openWAL(t *testing.T) *store.WAL {
	t.Helper()
	w, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

func rec(seq uint64, typ store.Type, job string) *store.Record {
	r := &store.Record{Type: typ, Job: job, Time: 1700000000_000000000 + int64(seq), JobSeq: int64(seq)}
	if typ == store.TypeSubmitted {
		r.Spec = []byte(`{"algorithm":"asgd","dataset":{"name":"rcv1-like"}}`)
	}
	return r
}

// TestAppendFaultOrdinals pins the 1-based operation counting: the Nth
// append fails before the write, the drop-ack append fails after a durable
// write, and the Nth sync fails — everything else passes through.
func TestAppendFaultOrdinals(t *testing.T) {
	f := Wrap(openWAL(t), Plan{FailAppendN: 1, DropAckAppendN: 2, FailSyncN: 1})

	if err := f.Append(rec(1, store.TypeSubmitted, "job-000001")); !errors.Is(err, ErrInjected) {
		t.Fatalf("append 1: %v, want ErrInjected", err)
	}
	count := func() (n int) {
		if err := f.Replay(func(store.Record) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := count(); n != 0 {
		t.Fatalf("failed append left %d records", n)
	}

	// the dropped ack is the crash window: the error reaches the caller
	// but the record is durably in the log
	if err := f.Append(rec(2, store.TypeSubmitted, "job-000002")); !errors.Is(err, ErrInjected) {
		t.Fatalf("append 2: %v, want ErrInjected", err)
	}
	if n := count(); n != 1 {
		t.Fatalf("drop-ack append wrote %d records, want 1", n)
	}

	if err := f.Append(rec(3, store.TypeSubmitted, "job-000003")); err != nil {
		t.Fatalf("append 3: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync 1: %v, want ErrInjected", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync 2: %v", err)
	}
	if got := f.Injected(); got != 3 {
		t.Fatalf("Injected() = %d, want 3", got)
	}
}

// TestProbabilisticFaultsReplayFromSeed: two wrappers with equal plans and
// seeds must inject on exactly the same append ordinals — the property the
// chaos harness leans on to replay a failing run bit-for-bit.
func TestProbabilisticFaultsReplayFromSeed(t *testing.T) {
	plan := Plan{Seed: 9, AppendFailProb: 0.4}
	a := Wrap(openWAL(t), plan)
	b := Wrap(openWAL(t), plan)
	var injected int
	for i := 1; i <= 40; i++ {
		errA := a.Append(rec(uint64(i), store.TypeSubmitted, "job-000001"))
		errB := b.Append(rec(uint64(i), store.TypeSubmitted, "job-000001"))
		if errors.Is(errA, ErrInjected) != errors.Is(errB, ErrInjected) {
			t.Fatalf("append %d: wrappers diverged (%v vs %v)", i, errA, errB)
		}
		if errors.Is(errA, ErrInjected) {
			injected++
		}
	}
	if injected == 0 || injected == 40 {
		t.Fatalf("probabilistic plan injected %d/40 — expected a mix", injected)
	}
}

// TestStallAppend: the stalled ordinal sleeps for StallFor before the
// write, the fault window a lease TTL is meant to fence.
func TestStallAppend(t *testing.T) {
	f := Wrap(openWAL(t), Plan{StallAppendN: 1, StallFor: 30 * time.Millisecond})
	start := time.Now()
	if err := f.Append(rec(1, store.TypeSubmitted, "job-000001")); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < 30*time.Millisecond {
		t.Fatalf("stalled append returned in %v, want >= 30ms", took)
	}
}

// TestPauseGatesEveryOperation: a paused wrapper blocks operations until
// Resume — the stop-the-world replica failure mode.
func TestPauseGatesEveryOperation(t *testing.T) {
	f := Wrap(openWAL(t), Plan{})
	f.Pause()
	done := make(chan error, 1)
	go func() { done <- f.Append(rec(1, store.TypeSubmitted, "job-000001")) }()
	select {
	case err := <-done:
		t.Fatalf("append completed while paused: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	f.Resume()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestDelegatedSurface drives the pass-through methods against a replica
// handle of the WAL, so the wrapper is substitutable anywhere a Store is.
func TestDelegatedSurface(t *testing.T) {
	w, err := store.OpenShared(t.TempDir(), "r1", store.SharedOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	f := Wrap(w, Plan{})
	const job = "job-000001"
	if err := f.Append(rec(1, store.TypeSubmitted, job)); err != nil {
		t.Fatal(err)
	}

	l, err := f.Claim(job, "r1", time.Minute)
	if err != nil || l.Owner != "r1" {
		t.Fatalf("claim: %+v, %v", l, err)
	}
	if _, err := f.Renew(job, "r1", l.Epoch, time.Minute); err != nil {
		t.Fatalf("renew: %v", err)
	}
	if ls, err := f.Leases(); err != nil || len(ls) != 1 {
		t.Fatalf("leases: %+v, %v", ls, err)
	}
	var n int
	if _, err := f.ReplaySince(store.Watermark{}, func(store.Record) error { n++; return nil }); err != nil || n == 0 {
		t.Fatalf("replay-since saw %d, %v", n, err)
	}
	if err := f.Release(job, "r1", l.Epoch); err != nil {
		t.Fatalf("release: %v", err)
	}

	cp := &opt.Checkpoint{Algorithm: "asgd", W: la.NewVec(4), Updates: 10}
	if err := f.SaveCheckpoint(job, 1, cp); err != nil {
		t.Fatal(err)
	}
	back, err := f.LoadCheckpoint(job, 1)
	if err != nil || back.Updates != 10 {
		t.Fatalf("checkpoint round trip: %+v, %v", back, err)
	}
	if err := f.DropJob(job); err != nil {
		t.Fatal(err)
	}
	if err := f.Compact(nil); err != nil {
		t.Fatal(err)
	}
	if m := f.Metrics(); m.Compactions != 1 {
		t.Fatalf("metrics after compact: %+v", m)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTornAppendArmsInnerFailpoint: wrapping a shared store with
// TornAppendN arms its crash failpoint, so the Nth append dies mid-record
// like a kill -9 and the handle goes dead afterwards.
func TestTornAppendArmsInnerFailpoint(t *testing.T) {
	w, err := store.OpenShared(t.TempDir(), "r1", store.SharedOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	f := Wrap(w, Plan{TornAppendN: 2})
	if err := f.Append(rec(1, store.TypeSubmitted, "job-000001")); err != nil {
		t.Fatal(err)
	}
	if err := f.Append(rec(2, store.TypeDispatched, "job-000001")); err == nil {
		t.Fatal("torn append reported success")
	}
	if err := f.Append(rec(3, store.TypeDispatched, "job-000001")); !errors.Is(err, store.ErrClosed) {
		t.Fatalf("append after torn write: %v, want ErrClosed", err)
	}
}
