package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func openShared(t *testing.T, dir, replica string) *WAL {
	t.Helper()
	s, err := OpenShared(dir, replica, SharedOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// ownedRecord is a lifecycle record asserting ownership under a lease.
func ownedRecord(typ Type, job, owner string, epoch int64) *Record {
	return &Record{Type: typ, Job: job, Owner: owner, Epoch: epoch}
}

// TestSharedLeaseFencing drives the fencing contract across two handles on
// one directory: a live foreign lease rejects claims (ErrLeaseHeld) and
// both owned and ownerless lifecycle appends from anyone but the owner
// (ErrFenced); release hands the job over with a strictly higher epoch,
// after which the old owner's epoch is dead forever.
func TestSharedLeaseFencing(t *testing.T) {
	dir := t.TempDir()
	a := openShared(t, dir, "a")
	b := openShared(t, dir, "b")
	const job = "job-a-000001"

	if err := a.Append(testRecord(1, TypeSubmitted, job)); err != nil {
		t.Fatal(err)
	}
	la, err := a.Claim(job, "a", time.Minute)
	if err != nil {
		t.Fatalf("claim: %v", err)
	}
	if la.Epoch != 1 || la.Owner != "a" {
		t.Fatalf("first claim lease %+v, want owner a epoch 1", la)
	}

	if _, err := b.Claim(job, "b", time.Minute); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("claim over live foreign lease: %v, want ErrLeaseHeld", err)
	}
	// a bystander may not move a leased job's state, with or without a token
	if err := b.Append(ownedRecord(TypeCanceled, job, "", 0)); !errors.Is(err, ErrFenced) {
		t.Fatalf("ownerless cancel of leased job: %v, want ErrFenced", err)
	}
	if err := b.Append(ownedRecord(TypeDispatched, job, "b", la.Epoch)); !errors.Is(err, ErrFenced) {
		t.Fatalf("foreign-owner dispatch: %v, want ErrFenced", err)
	}

	if err := a.Append(ownedRecord(TypeDispatched, job, "a", la.Epoch)); err != nil {
		t.Fatalf("owner dispatch: %v", err)
	}
	if _, err := a.Renew(job, "a", la.Epoch, time.Minute); err != nil {
		t.Fatalf("owner renew: %v", err)
	}
	if err := a.Release(job, "a", la.Epoch); err != nil {
		t.Fatalf("owner release: %v", err)
	}

	lb, err := b.Claim(job, "b", time.Minute)
	if err != nil {
		t.Fatalf("claim after release: %v", err)
	}
	if lb.Epoch <= la.Epoch {
		t.Fatalf("epoch after handover %d, want > %d (strictly increasing)", lb.Epoch, la.Epoch)
	}
	// the displaced epoch can never pass a fence again
	if err := a.Append(ownedRecord(TypeCheckpointed, job, "a", la.Epoch)); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale-epoch append: %v, want ErrFenced", err)
	}
	if _, err := a.Renew(job, "a", la.Epoch, time.Minute); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale-epoch renew: %v, want ErrFenced", err)
	}

	if m := b.Metrics(); m.FencedAppends == 0 {
		t.Fatalf("no fenced appends counted on b: %+v", m)
	}
	// the terminal record (from the live owner) clears the lease
	if err := b.Append(ownedRecord(TypeDone, job, "b", lb.Epoch)); err != nil {
		t.Fatalf("owner terminal: %v", err)
	}
	ls, err := a.Leases()
	if err != nil {
		t.Fatal(err)
	}
	if len(ls) != 0 {
		t.Fatalf("leases after terminal record: %+v, want none", ls)
	}
}

// TestSharedLeaseExpiryAdoption: an expired lease is fenced for its old
// owner and claimable by an adopter at a strictly higher epoch, through a
// handle that never saw the original claim first-hand.
func TestSharedLeaseExpiryAdoption(t *testing.T) {
	dir := t.TempDir()
	a := openShared(t, dir, "a")
	const job = "job-a-000001"
	if err := a.Append(testRecord(1, TypeSubmitted, job)); err != nil {
		t.Fatal(err)
	}
	la, err := a.Claim(job, "a", 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(40 * time.Millisecond)

	if _, err := a.Renew(job, "a", la.Epoch, time.Minute); !errors.Is(err, ErrFenced) {
		t.Fatalf("renew after expiry: %v, want ErrFenced", err)
	}
	b := openShared(t, dir, "b") // opened post-expiry: sees only the log
	ls, err := b.Leases()
	if err != nil {
		t.Fatal(err)
	}
	if len(ls) != 1 || ls[0].Live(time.Now()) {
		t.Fatalf("orphan scan sees %+v, want one expired lease", ls)
	}
	lb, err := b.Claim(job, "b", time.Minute)
	if err != nil {
		t.Fatalf("adoption claim: %v", err)
	}
	if lb.Epoch <= la.Epoch {
		t.Fatalf("adoption epoch %d, want > %d", lb.Epoch, la.Epoch)
	}
	if err := a.Append(ownedRecord(TypeDone, job, "a", la.Epoch)); !errors.Is(err, ErrFenced) {
		t.Fatalf("old owner append after adoption: %v, want ErrFenced", err)
	}
	if err := b.Append(ownedRecord(TypeDone, job, "b", lb.Epoch)); err != nil {
		t.Fatalf("adopter append: %v", err)
	}
}

// TestSharedCompactionSwapDetected: after one handle compacts (rewriting
// the file and renaming it over the old inode), a stale handle must detect
// the swap on its next operation, re-read the rewritten log, and keep the
// lease table — claims survive compaction.
func TestSharedCompactionSwapDetected(t *testing.T) {
	dir := t.TempDir()
	a := openShared(t, dir, "a")
	b := openShared(t, dir, "b")
	const live = "job-a-000001"

	if err := a.Append(testRecord(1, TypeSubmitted, live)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Claim(live, "a", time.Minute); err != nil {
		t.Fatal(err)
	}
	// a finished job that compaction squeezes to submitted+terminal
	if err := a.Append(testRecord(2, TypeSubmitted, "job-a-000002")); err != nil {
		t.Fatal(err)
	}
	if err := a.Append(testRecord(3, TypeDispatched, "job-a-000002")); err != nil {
		t.Fatal(err)
	}
	if err := a.Append(testRecord(4, TypeDone, "job-a-000002")); err != nil {
		t.Fatal(err)
	}

	// b's view predates the rewrite
	wm, err := b.ReplaySince(Watermark{}, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Compact(nil); err != nil {
		t.Fatal(err)
	}

	// the stale handle must observe the swap, not append past a dead inode
	if _, err := b.Claim(live, "b", time.Minute); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("claim after compaction: %v, want ErrLeaseHeld (lease survived rewrite)", err)
	}
	wm2, err := b.ReplaySince(wm, func(r Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if wm2.Gen <= wm.Gen {
		t.Fatalf("watermark generation %d after compaction, want > %d", wm2.Gen, wm.Gen)
	}
	// and appends from the stale handle land in the rewritten log
	if err := b.Append(testRecord(9, TypeSubmitted, "job-b-000001")); err != nil {
		t.Fatalf("append after swap: %v", err)
	}
	a2 := openShared(t, dir, "a2")
	n := 0
	seen := false
	if err := a2.Replay(func(r Record) error {
		n++
		seen = seen || r.Job == "job-b-000001"
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !seen {
		t.Fatalf("post-swap append missing from rewritten log (%d records)", n)
	}
}

// TestSharedTornClaimRecovered is the truncated-mid-lease-record recovery
// test: a log whose final Claimed record is cut mid-frame (the claimant
// died between write and ack) recovers to the longest valid prefix — the
// partial claim is dropped, the job's submission survives, and the job is
// claimable by the next replica at a fresh epoch.
func TestSharedTornClaimRecovered(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenShared(dir, "a", SharedOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	const job = "job-a-000001"
	if err := a.Append(testRecord(1, TypeSubmitted, job)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, walName)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Claim(job, "a", time.Minute); err != nil {
		t.Fatal(err)
	}
	a.Close()
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() <= before.Size() {
		t.Fatalf("claim appended nothing (%d -> %d bytes)", before.Size(), after.Size())
	}
	// cut into the middle of the claim frame
	if err := os.Truncate(path, before.Size()+(after.Size()-before.Size())/2); err != nil {
		t.Fatal(err)
	}

	b, err := OpenShared(dir, "b", SharedOptions{NoSync: true})
	if err != nil {
		t.Fatalf("open over torn claim: %v", err)
	}
	defer b.Close()
	if m := b.Metrics(); !m.TruncatedTail {
		t.Fatalf("torn tail not reported: %+v", m)
	}
	var types []Type
	if err := b.Replay(func(r Record) error { types = append(types, r.Type); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(types) != 1 || types[0] != TypeSubmitted {
		t.Fatalf("recovered record types %v, want just the submission", types)
	}
	ls, err := b.Leases()
	if err != nil {
		t.Fatal(err)
	}
	if len(ls) != 0 {
		t.Fatalf("partial claim leaked into the lease table: %+v", ls)
	}
	if _, err := b.Claim(job, "b", time.Minute); err != nil {
		t.Fatalf("job not claimable after torn-claim recovery: %v", err)
	}

	// the single-owner WAL recovers the same file the same way
	dir2 := t.TempDir()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir2, walName), src, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := Open(dir2, Options{NoSync: true})
	if err != nil {
		t.Fatalf("WAL open over recovered log: %v", err)
	}
	defer w.Close()
	n := 0
	if err := w.Replay(func(r Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("WAL replay lost the surviving submission")
	}
}

// TestSharedCrashFailpointSurvivorTruncates: the armed crash failpoint
// tears an append mid-record and kills the handle; the surviving replica's
// next mutation truncates the torn tail and proceeds on a contiguous log.
func TestSharedCrashFailpointSurvivorTruncates(t *testing.T) {
	dir := t.TempDir()
	a := openShared(t, dir, "a")
	b := openShared(t, dir, "b")
	if err := a.Append(testRecord(1, TypeSubmitted, "job-a-000001")); err != nil {
		t.Fatal(err)
	}
	a.FailAfterAppends(0)
	if err := a.Append(testRecord(2, TypeDispatched, "job-a-000001")); !errors.Is(err, ErrClosed) {
		t.Fatalf("torn append: %v, want ErrClosed (handle dead)", err)
	}
	if err := a.Append(testRecord(3, TypeDone, "job-a-000001")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append on dead handle: %v, want ErrClosed", err)
	}

	if err := b.Append(testRecord(2, TypeSubmitted, "job-b-000001")); err != nil {
		t.Fatalf("survivor append over torn tail: %v", err)
	}
	var last uint64
	if err := b.Replay(func(r Record) error {
		if r.Seq != last+1 {
			t.Fatalf("seq %d after %d: log not contiguous after truncation", r.Seq, last)
		}
		last = r.Seq
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if last != 2 {
		t.Fatalf("survivor log has %d records, want 2 (torn record dropped)", last)
	}
}

// TestSharedTransientAppendFailureRollsBack: a failed append must leave no
// seq gap. Before the fix, appendRecLocked bumped seq before the write, so
// a transient error left a permanent gap and the next successful append
// (here, a lease claim) was truncated by peers as a torn tail — the
// claimant believed it held the lease while peers could claim the same
// job.
func TestSharedTransientAppendFailureRollsBack(t *testing.T) {
	dir := t.TempDir()
	a := openShared(t, dir, "a")
	const job = "job-a-000001"
	if err := a.Append(testRecord(1, TypeSubmitted, job)); err != nil {
		t.Fatal(err)
	}
	a.FailNextAppendTransient()
	if err := a.Append(testRecord(2, TypeSubmitted, "job-a-000002")); err == nil {
		t.Fatal("injected append failure returned nil")
	}
	// the handle survives and its next append lands at a contiguous seq
	la, err := a.Claim(job, "a", time.Minute)
	if err != nil {
		t.Fatalf("claim after transient append failure: %v", err)
	}
	// a peer must replay both durable records intact; a seq gap would make
	// it cut the claim as a torn tail and hand the lease to someone else
	b := openShared(t, dir, "b")
	var types []Type
	var last uint64
	if err := b.Replay(func(r Record) error {
		if r.Seq != last+1 {
			t.Fatalf("seq %d after %d: gap left by failed append", r.Seq, last)
		}
		last = r.Seq
		types = append(types, r.Type)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(types) != 2 || types[0] != TypeSubmitted || types[1] != TypeClaimed {
		t.Fatalf("peer replay %v, want [submitted claimed]", types)
	}
	if m := b.Metrics(); m.TruncatedTail {
		t.Fatal("peer truncated a tail the rollback should have repaired")
	}
	if _, err := b.Claim(job, "b", time.Minute); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("peer claim over live lease (epoch %d): %v, want ErrLeaseHeld", la.Epoch, err)
	}
}

// TestSharedCompactKeepsPreemptSpill: self-compaction must keep a job's
// newest checkpoint pointer whatever record type carried it. A preempted
// record followed by a re-dispatch used to be dropped as a superseded
// state record, so the job's only spill pointer vanished and the next
// adopter restarted from update 0.
func TestSharedCompactKeepsPreemptSpill(t *testing.T) {
	const job = "job-a-000001"
	for _, tc := range []struct {
		name    string
		history []*Record
	}{
		{"preempted then redispatched", []*Record{
			{Type: TypeSubmitted, Job: job, JobSeq: 1, Spec: []byte(`{}`)},
			{Type: TypeDispatched, Job: job},
			{Type: TypePreempted, Job: job, Updates: 300, DispatchSeq: 12},
			{Type: TypeDispatched, Job: job, Updates: 300},
		}},
		{"newest pointer wins", []*Record{
			{Type: TypeSubmitted, Job: job, JobSeq: 1, Spec: []byte(`{}`)},
			{Type: TypeDispatched, Job: job},
			{Type: TypeCheckpointed, Job: job, Updates: 200, DispatchSeq: 9},
			{Type: TypePreempted, Job: job, Updates: 300, DispatchSeq: 12},
			{Type: TypeDispatched, Job: job, Updates: 300},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := openShared(t, t.TempDir(), "a")
			for _, rec := range tc.history {
				if err := s.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Compact(nil); err != nil {
				t.Fatal(err)
			}
			var last *Record
			for _, r := range replayAll(t, s) {
				r := r
				if r.Type == TypeCheckpointed || r.Type == TypePreempted {
					last = &r
				}
			}
			if last == nil || last.DispatchSeq != 12 || last.Updates != 300 {
				t.Fatalf("newest surviving checkpoint pointer %+v, want dispatch_seq 12 at 300 updates", last)
			}
		})
	}
}
