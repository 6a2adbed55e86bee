package store

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestWALLeaseLifecycle drives the lease surface of one handle through the
// replica scheduler's protocol: claim, foreign-claim rejection, renew,
// epoch fencing, release, and re-claim with a bumped epoch — then every
// operation's ErrClosed path.
func TestWALLeaseLifecycle(t *testing.T) {
	eachMode(t, func(t *testing.T, mode string) {
		w, err := openMode(mode, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		const job = "job-000001"
		l, err := w.Claim(job, "r1", time.Minute)
		if err != nil || l.Owner != "r1" || l.Epoch != 1 {
			t.Fatalf("claim: %+v, %v", l, err)
		}
		if _, err := w.Claim(job, "r2", time.Minute); !errors.Is(err, ErrLeaseHeld) {
			t.Fatalf("foreign claim: %v, want ErrLeaseHeld", err)
		}
		if _, err := w.Renew(job, "r1", l.Epoch, time.Minute); err != nil {
			t.Fatalf("renew: %v", err)
		}
		if _, err := w.Renew(job, "r2", l.Epoch, time.Minute); !errors.Is(err, ErrFenced) {
			t.Fatalf("foreign renew: %v, want ErrFenced", err)
		}
		ls, err := w.Leases()
		if err != nil || len(ls) != 1 || ls[0].Job != job || ls[0].Owner != "r1" {
			t.Fatalf("leases: %+v, %v", ls, err)
		}
		if err := w.Release(job, "r1", l.Epoch+5); !errors.Is(err, ErrFenced) {
			t.Fatalf("stale release: %v, want ErrFenced", err)
		}
		if err := w.Release(job, "r1", l.Epoch); err != nil {
			t.Fatal(err)
		}
		// releasing an already-cleared lease is a documented no-op
		if err := w.Release(job, "r1", l.Epoch); err != nil {
			t.Fatal(err)
		}
		// the next claim's epoch moves past every epoch ever observed, so a
		// resurrected previous owner can never pass the fence again
		l2, err := w.Claim(job, "r2", time.Minute)
		if err != nil || l2.Epoch != l.Epoch+1 {
			t.Fatalf("reclaim: %+v, %v (want epoch %d)", l2, err, l.Epoch+1)
		}

		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Claim(job, "r1", time.Minute); !errors.Is(err, ErrClosed) {
			t.Fatalf("claim after close: %v, want ErrClosed", err)
		}
		if _, err := w.Renew(job, "r2", l2.Epoch, time.Minute); !errors.Is(err, ErrClosed) {
			t.Fatalf("renew after close: %v, want ErrClosed", err)
		}
		if err := w.Release(job, "r2", l2.Epoch); !errors.Is(err, ErrClosed) {
			t.Fatalf("release after close: %v, want ErrClosed", err)
		}
		if _, err := w.Leases(); !errors.Is(err, ErrClosed) {
			t.Fatalf("leases after close: %v, want ErrClosed", err)
		}
		if _, err := w.ReplaySince(Watermark{}, nil); !errors.Is(err, ErrClosed) {
			t.Fatalf("replay-since after close: %v, want ErrClosed", err)
		}
		if err := w.Append(testRecord(0, TypeDispatched, job)); !errors.Is(err, ErrClosed) {
			t.Fatalf("append after close: %v, want ErrClosed", err)
		}
		if err := w.Sync(); !errors.Is(err, ErrClosed) {
			t.Fatalf("sync after close: %v, want ErrClosed", err)
		}
	})
}

// TestWALReplaySince pins the watermark protocol: a tail replay sees only
// records past the watermark, a callback error propagates, and a compaction
// bumps the generation so a stale watermark replays the rewritten log from
// its beginning.
func TestWALReplaySince(t *testing.T) {
	eachMode(t, func(t *testing.T, mode string) {
		w, err := openMode(mode, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		for i := 1; i <= 3; i++ {
			if err := w.Append(testRecord(uint64(i), TypeSubmitted, fmt.Sprintf("job-%06d", i))); err != nil {
				t.Fatal(err)
			}
		}
		var n int
		wm, err := w.ReplaySince(Watermark{}, func(Record) error { n++; return nil })
		if err != nil || n != 3 {
			t.Fatalf("full replay saw %d records, %v", n, err)
		}

		if err := w.Append(testRecord(4, TypeDispatched, "job-000001")); err != nil {
			t.Fatal(err)
		}
		n = 0
		var last Record
		wm2, err := w.ReplaySince(wm, func(r Record) error { n++; last = r; return nil })
		if err != nil || n != 1 || last.Type != TypeDispatched {
			t.Fatalf("tail replay: n=%d last=%+v, %v", n, last, err)
		}

		boom := errors.New("boom")
		if _, err := w.ReplaySince(wm, func(Record) error { return boom }); !errors.Is(err, boom) {
			t.Fatalf("replay error: %v, want boom", err)
		}

		if err := w.Compact([]*Record{testRecord(1, TypeSubmitted, "job-000001")}); err != nil {
			t.Fatal(err)
		}
		n = 0
		if _, err := w.ReplaySince(wm2, func(Record) error { n++; return nil }); err != nil || n == 0 ||
			n != len(replayAll(t, w)) {
			t.Fatalf("post-compact replay from a stale watermark saw %d records, %v; want the whole rewritten log", n, err)
		}
	})
}
