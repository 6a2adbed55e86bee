package store

import (
	"errors"
	"strings"
	"testing"
)

func TestTypeStringAndTerminal(t *testing.T) {
	for typ, name := range typeNames {
		if typ.String() != name {
			t.Fatalf("Type(%d).String() = %q, want %q", typ, typ.String(), name)
		}
	}
	if s := Type(99).String(); !strings.Contains(s, "99") {
		t.Fatalf("unknown type string %q", s)
	}
	terminal := map[Type]bool{TypeDone: true, TypeFailed: true, TypeCanceled: true}
	for typ := TypeSubmitted; typ <= TypeCanceled; typ++ {
		if typ.Terminal() != terminal[typ] {
			t.Fatalf("%s.Terminal() = %v", typ, typ.Terminal())
		}
	}
}

// TestWALKillFailpoint: Kill simulates death at a record boundary — every
// later mutation fails with ErrClosed, the log is not torn, and a reopen
// recovers everything acknowledged before the kill.
func TestWALKillFailpoint(t *testing.T) {
	eachMode(t, func(t *testing.T, mode string) {
		dir := t.TempDir()
		w, err := openMode(mode, dir)
		if err != nil {
			t.Fatal(err)
		}
		if w.Dir() != dir {
			t.Fatalf("Dir() = %q, want %q", w.Dir(), dir)
		}
		for i := 0; i < 2; i++ {
			if err := w.Append(testRecord(0, TypeSubmitted, "job-000001")); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Sync(); err != nil {
			t.Fatalf("sync before kill: %v", err)
		}
		w.Kill()

		if err := w.Append(testRecord(0, TypeDispatched, "job-000001")); !errors.Is(err, ErrClosed) {
			t.Fatalf("append after kill: %v, want ErrClosed", err)
		}
		if err := w.SaveCheckpoint("job-000001", 1, testCheckpoint(10, 1)); !errors.Is(err, ErrClosed) {
			t.Fatalf("spill after kill: %v, want ErrClosed", err)
		}
		if err := w.Compact(nil); !errors.Is(err, ErrClosed) {
			t.Fatalf("compact after kill: %v, want ErrClosed", err)
		}
		if err := w.Sync(); !errors.Is(err, ErrClosed) {
			t.Fatalf("sync after kill: %v, want ErrClosed", err)
		}
		if err := w.DropJob("job-000001"); !errors.Is(err, ErrClosed) {
			t.Fatalf("drop after kill: %v, want ErrClosed", err)
		}
		if m := w.Metrics(); m.Appends != 2 {
			t.Fatalf("metrics after kill: %+v, want 2 appends", m)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("close after kill: %v", err)
		}

		w2, err := openMode(mode, dir)
		if err != nil {
			t.Fatal(err)
		}
		defer w2.Close()
		recs := replayAll(t, w2)
		if len(recs) != 2 {
			t.Fatalf("reopen after kill recovered %d records, want 2", len(recs))
		}
		if w2.Metrics().TruncatedTail {
			t.Fatal("kill at a record boundary must not tear the log")
		}
	})
}
