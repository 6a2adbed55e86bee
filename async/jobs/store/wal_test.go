package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/la"
	"repro/internal/opt"
)

func testRecord(seq uint64, typ Type, job string) *Record {
	r := &Record{
		Type: typ, Job: job, Time: 1700000000_000000000 + int64(seq),
		JobSeq: int64(seq), Updates: int64(seq) * 10, DispatchSeq: int64(seq) * 3,
	}
	switch typ {
	case TypeSubmitted:
		r.Spec = []byte(`{"algorithm":"asgd","dataset":{"name":"rcv1-like"}}`)
	case TypeDone:
		r.FinalError, r.HasFinal = 0.25, true
	case TypeFailed, TypeCanceled:
		r.Detail = "engine exploded"
	}
	return r
}

func TestRecordRoundTrip(t *testing.T) {
	types := []Type{TypeSubmitted, TypeDispatched, TypeCheckpointed, TypePreempted, TypeDone, TypeFailed, TypeCanceled}
	var buf []byte
	var want []*Record
	for i, typ := range types {
		r := testRecord(uint64(i+1), typ, "job-000007")
		r.Seq = uint64(i + 1)
		want = append(want, r)
		buf = r.encode(buf)
	}
	off := 0
	for i := range want {
		got, n, err := decodeRecord(buf[off:])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		off += n
		w := *want[i]
		if got.Seq != w.Seq || got.Type != w.Type || got.Job != w.Job || got.Time != w.Time ||
			got.JobSeq != w.JobSeq || got.Updates != w.Updates || got.DispatchSeq != w.DispatchSeq ||
			got.Detail != w.Detail || got.HasFinal != w.HasFinal || got.FinalError != w.FinalError ||
			!bytes.Equal(got.Spec, w.Spec) {
			t.Fatalf("record %d round trip:\n got %+v\nwant %+v", i, got, w)
		}
	}
	if off != len(buf) {
		t.Fatalf("decoded %d of %d bytes", off, len(buf))
	}
}

func TestRecordDecodeRejectsCorruption(t *testing.T) {
	r := testRecord(1, TypeSubmitted, "job-000001")
	frame := r.encode(nil)
	if _, _, err := decodeRecord(frame[:3]); err == nil {
		t.Fatal("short header accepted")
	}
	if _, _, err := decodeRecord(frame[:len(frame)-1]); err == nil {
		t.Fatal("truncated frame accepted")
	}
	for i := 4; i < len(frame); i += 7 {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x40
		if _, _, err := decodeRecord(bad); err == nil {
			t.Fatalf("bit flip at %d accepted", i)
		}
	}
	huge := []byte{0xff, 0xff, 0xff, 0xff}
	if _, _, err := decodeRecord(huge); err == nil {
		t.Fatal("oversized length accepted")
	}
}

func replayAll(t *testing.T, s Store) []Record {
	t.Helper()
	var out []Record
	if err := s.Replay(func(r Record) error { out = append(out, r); return nil }); err != nil {
		t.Fatal(err)
	}
	return out
}

// openMode opens dir in one of the two ways a directory's log is opened: as
// its sole owner or as replica "r" (fsync on, no self-compaction either way).
func openMode(mode, dir string) (*WAL, error) {
	if mode == "replica" {
		return OpenShared(dir, "r", SharedOptions{CompactEvery: -1})
	}
	return Open(dir, Options{})
}

// eachMode runs fn once per openMode mode. The file behaviour — recovery,
// torn-tail truncation, spills, failpoints — is one code path, so the tests
// of it take the mode as one more input.
func eachMode(t *testing.T, fn func(t *testing.T, mode string)) {
	for _, mode := range []string{"sole", "replica"} {
		t.Run(mode, func(t *testing.T) { fn(t, mode) })
	}
}

func TestWALAppendReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := w.Append(testRecord(uint64(i), TypeSubmitted, "job-00000"+string(rune('0'+i)))); err != nil {
			t.Fatal(err)
		}
	}
	m := w.Metrics()
	if m.Appends != 5 || m.Fsyncs == 0 || m.SizeBytes == 0 {
		t.Fatalf("metrics %+v", m)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	recs := replayAll(t, w2)
	if len(recs) != 5 {
		t.Fatalf("replayed %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) || r.Type != TypeSubmitted {
			t.Fatalf("record %d: %+v", i, r)
		}
	}
	if w2.Metrics().TruncatedTail {
		t.Fatal("clean log reported a truncated tail")
	}
	// appends continue the sequence
	if err := w2.Append(testRecord(6, TypeDispatched, "job-000001")); err != nil {
		t.Fatal(err)
	}
}

func TestWALTornTailRecovery(t *testing.T) {
	eachMode(t, func(t *testing.T, mode string) {
		dir := t.TempDir()
		w, err := openMode(mode, dir)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 3; i++ {
			if err := w.Append(testRecord(uint64(i), TypeSubmitted, "job-000001")); err != nil {
				t.Fatal(err)
			}
		}
		w.Close()
		path := filepath.Join(dir, "wal.log")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// tear the last record in half — a crash mid-append
		torn := data[:len(data)-17]
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		w2, err := openMode(mode, dir)
		if err != nil {
			t.Fatal(err)
		}
		defer w2.Close()
		recs := replayAll(t, w2)
		if len(recs) != 2 {
			t.Fatalf("replayed %d records after torn tail, want 2", len(recs))
		}
		if !w2.Metrics().TruncatedTail {
			t.Fatal("torn tail not reported")
		}
		// the torn bytes are gone: appending then reopening yields 3 clean records
		if err := w2.Append(testRecord(9, TypeDispatched, "job-000001")); err != nil {
			t.Fatal(err)
		}
		w2.Close()
		w3, err := openMode(mode, dir)
		if err != nil {
			t.Fatal(err)
		}
		defer w3.Close()
		if got := replayAll(t, w3); len(got) != 3 || got[2].Type != TypeDispatched {
			t.Fatalf("after repair: %+v", got)
		}
	})
}

func TestWALBitFlipKeepsPrefix(t *testing.T) {
	eachMode(t, func(t *testing.T, mode string) {
		dir := t.TempDir()
		w, err := openMode(mode, dir)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 4; i++ {
			if err := w.Append(testRecord(uint64(i), TypeSubmitted, "job-000001")); err != nil {
				t.Fatal(err)
			}
		}
		w.Close()
		path := filepath.Join(dir, "wal.log")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// flip one bit two thirds in: records before the flipped one survive
		data[2*len(data)/3] ^= 0x01
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w2, err := openMode(mode, dir)
		if err != nil {
			t.Fatal(err)
		}
		defer w2.Close()
		recs := replayAll(t, w2)
		if len(recs) == 0 || len(recs) >= 4 {
			t.Fatalf("replayed %d records after bit flip, want a strict valid prefix", len(recs))
		}
		for i, r := range recs {
			if r.Seq != uint64(i+1) {
				t.Fatalf("prefix out of order: %+v", recs)
			}
		}
		if !w2.Metrics().TruncatedTail {
			t.Fatal("bit flip not reported as truncation")
		}
	})
}

func TestWALBadMagicRejected(t *testing.T) {
	eachMode(t, func(t *testing.T, mode string) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), []byte("not a wal at all"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := openMode(mode, dir); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("bad magic accepted: %v", err)
		}
	})
}

func testCheckpoint(updates int64, dispatchSeq int64) *opt.Checkpoint {
	cp := &opt.Checkpoint{Algorithm: "asgd", W: la.NewVec(4), Updates: updates}
	cp.W[0] = 0.5
	cp.SetInt("dispatch_seq", dispatchSeq)
	return cp
}

func TestWALCheckpointSpill(t *testing.T) {
	eachMode(t, func(t *testing.T, mode string) {
		dir := t.TempDir()
		w, err := openMode(mode, dir)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		if err := w.SaveCheckpoint("job-000001", 10, testCheckpoint(100, 10)); err != nil {
			t.Fatal(err)
		}
		if err := w.SaveCheckpoint("job-000001", 20, testCheckpoint(200, 20)); err != nil {
			t.Fatal(err)
		}
		if m := w.Metrics(); m.CheckpointSpills != 2 {
			t.Fatalf("metrics %+v, want 2 spills", m)
		}
		// the newer spill replaced the older
		if _, err := w.LoadCheckpoint("job-000001", 10); err == nil {
			t.Fatal("stale spill survived a newer one")
		}
		cp, err := w.LoadCheckpoint("job-000001", 20)
		if err != nil {
			t.Fatal(err)
		}
		if cp.Updates != 200 || cp.Int("dispatch_seq") != 20 || cp.W[0] != 0.5 {
			t.Fatalf("loaded %+v", cp)
		}
		if err := w.DropJob("job-000001"); err != nil {
			t.Fatal(err)
		}
		if _, err := w.LoadCheckpoint("job-000001", 20); err == nil {
			t.Fatal("spill survived DropJob")
		}
		if _, err := w.LoadCheckpoint("../evil", 1); err == nil {
			t.Fatal("path-traversal job id accepted")
		}
	})
}

// Sole-only: only a sole owner can know no writer is live, so only Open
// sweeps; a replica opening beside a peer mid-rename must leave temps alone.
func TestWALOpenSweepsOrphanedTemps(t *testing.T) {
	dir := t.TempDir()
	// a crash mid temp+fsync+rename leaves the temp behind; the spill GC
	// never matches it, so Open must sweep it
	orphan := filepath.Join(dir, "cp-job-000001-5.ckpt.tmp")
	if err := os.WriteFile(orphan, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphaned temp survived Open: %v", err)
	}
}

// Sole-only: installing the caller's snapshot is what a sole owner does; a
// replica ignores it (TestSharedCompactionSwapDetected and
// TestSharedCompactKeepsPreemptSpill pin that side).
func TestWALCompact(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 1; i <= 10; i++ {
		if err := w.Append(testRecord(uint64(i), TypeSubmitted, "job-000001")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.SaveCheckpoint("job-000001", 5, testCheckpoint(50, 5)); err != nil {
		t.Fatal(err)
	}
	if err := w.SaveCheckpoint("job-000002", 7, testCheckpoint(70, 7)); err != nil {
		t.Fatal(err)
	}
	before := w.Metrics().SizeBytes
	snap := []*Record{
		testRecord(1, TypeSubmitted, "job-000002"),
		testRecord(2, TypeDispatched, "job-000002"),
	}
	if err := w.Compact(snap); err != nil {
		t.Fatal(err)
	}
	m := w.Metrics()
	if m.SizeBytes >= before || m.Compactions != 1 || m.AppendsSinceCompact != 0 {
		t.Fatalf("after compact: %+v (size before %d)", m, before)
	}
	// spill GC: job-000001 left the log, its spill goes; job-000002 stays
	if _, err := w.LoadCheckpoint("job-000001", 5); err == nil {
		t.Fatal("dropped job's spill survived compaction")
	}
	if _, err := w.LoadCheckpoint("job-000002", 7); err != nil {
		t.Fatalf("live job's spill lost by compaction: %v", err)
	}
	// appends continue on the new log; a reopen replays snapshot + new tail
	if err := w.Append(testRecord(3, TypeCheckpointed, "job-000002")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	recs := replayAll(t, w2)
	if len(recs) != 3 || recs[0].Job != "job-000002" || recs[2].Type != TypeCheckpointed {
		t.Fatalf("post-compact replay: %+v", recs)
	}
}

func TestWALFailpointTornAppend(t *testing.T) {
	eachMode(t, func(t *testing.T, mode string) {
		dir := t.TempDir()
		w, err := openMode(mode, dir)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 2; i++ {
			if err := w.Append(testRecord(uint64(i), TypeSubmitted, "job-000001")); err != nil {
				t.Fatal(err)
			}
		}
		w.FailAfterAppends(1)
		if err := w.Append(testRecord(3, TypeDispatched, "job-000001")); err != nil {
			t.Fatal(err) // one more append succeeds
		}
		if err := w.Append(testRecord(4, TypeCheckpointed, "job-000001")); err == nil {
			t.Fatal("armed failpoint did not fire")
		}
		// dead store: every mutation fails
		if err := w.Append(testRecord(5, TypePreempted, "job-000001")); err == nil {
			t.Fatal("dead store accepted an append")
		}
		if err := w.Sync(); err == nil {
			t.Fatal("dead store accepted a sync")
		}
		w.Close()
		// recovery keeps the 3 acknowledged records, cuts the torn one
		w2, err := openMode(mode, dir)
		if err != nil {
			t.Fatal(err)
		}
		defer w2.Close()
		recs := replayAll(t, w2)
		if len(recs) != 3 {
			t.Fatalf("replayed %d records, want the 3 acknowledged", len(recs))
		}
		if !w2.Metrics().TruncatedTail {
			t.Fatal("torn failpoint append not reported")
		}
	})
}

// TestSecondOpenRefused pins the owner lock: a directory takes one sole owner
// or any number of replicas, and every other combination fails at open with
// an error naming the directory. Without it two sole owners each write at
// their own offset of one file — six acknowledged appends, three replayed.
func TestSecondOpenRefused(t *testing.T) {
	refused := func(what, dir string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), dir) {
			t.Fatalf("%s: err = %v, want a refusal naming %s", what, err, dir)
		}
	}
	dir := t.TempDir()
	w1, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{})
	refused("Open beside Open", dir, err)
	_, err = OpenShared(dir, "a", SharedOptions{})
	refused("OpenShared beside Open", dir, err)
	for i := 1; i <= 3; i++ {
		if err := w1.Append(testRecord(uint64(i), TypeSubmitted, "job-000001")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	// Close released it: replicas now coexist, and shut a sole owner out
	a, err := OpenShared(dir, "a", SharedOptions{})
	if err != nil {
		t.Fatalf("OpenShared after Close: %v", err)
	}
	b, err := OpenShared(dir, "b", SharedOptions{})
	if err != nil {
		t.Fatalf("second replica: %v", err)
	}
	_, err = Open(dir, Options{})
	refused("Open beside replicas", dir, err)
	a.Close()
	_, err = Open(dir, Options{})
	refused("Open beside the remaining replica", dir, err)
	// a dead process holds no locks
	b.Kill()
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after Kill: %v", err)
	}
	defer w2.Close()
	b.Close()
	if recs := replayAll(t, w2); len(recs) != 3 {
		t.Fatalf("replayed %d records, want the 3 acknowledged", len(recs))
	}
	_, err = Open(dir, Options{})
	refused("Open beside the reopened owner", dir, err)
}
