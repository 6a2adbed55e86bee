package telemetry

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"sync"
)

// DefaultTraceBytes bounds a trace's retained JSONL bytes when NewTrace is
// given no budget.
const DefaultTraceBytes = 256 << 10

// Trace is a run-scoped structured event log: each Event call appends one
// JSON line (encoded via log/slog) stamped with the run ID and a
// monotonically increasing per-trace seq. Lines are retained in a bounded
// ring — oldest dropped first, the drop count kept — so a long run's
// trace stays a bounded download. A nil *Trace is a valid no-op receiver,
// which is how un-traced runs pay nothing.
//
// Events allocate (slog encoding); they are for lifecycle cadence
// (dispatches, checkpoints, preemptions), not per-update hot paths — those
// belong in Registry metrics.
type Trace struct {
	mu      sync.Mutex
	run     string
	limit   int
	lines   [][]byte
	size    int
	dropped int64
	seq     int64
	buf     bytes.Buffer
	log     *slog.Logger
}

// NewTrace builds a trace whose events carry run="runID", retaining at
// most maxBytes of encoded lines (<=0 uses DefaultTraceBytes).
func NewTrace(runID string, maxBytes int) *Trace {
	if maxBytes <= 0 {
		maxBytes = DefaultTraceBytes
	}
	t := &Trace{run: runID, limit: maxBytes}
	h := slog.NewJSONHandler(&t.buf, &slog.HandlerOptions{
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			switch a.Key {
			case slog.LevelKey:
				return slog.Attr{} // every trace event is informational
			case slog.MessageKey:
				a.Key = "event"
			}
			return a
		},
	})
	t.log = slog.New(h).With("run", runID)
	return t
}

// Event appends one line: {"time":..., "event": name, "run":..., "seq":...,
// args...}. args are slog key/value pairs. Safe from any goroutine; a nil
// receiver is a no-op.
func (t *Trace) Event(name string, args ...any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	t.buf.Reset()
	all := make([]any, 0, len(args)+2)
	all = append(all, "seq", t.seq)
	all = append(all, args...)
	t.log.Log(context.Background(), slog.LevelInfo, name, all...)
	line := append([]byte(nil), t.buf.Bytes()...)
	t.lines = append(t.lines, line)
	t.size += len(line)
	for t.size > t.limit && len(t.lines) > 1 {
		t.size -= len(t.lines[0])
		t.lines[0] = nil
		t.lines = t.lines[1:]
		t.dropped++
	}
}

// WriteTo streams the retained lines as JSONL. Lines are immutable once
// appended, so the writes happen outside the lock.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	if t == nil {
		return 0, nil
	}
	t.mu.Lock()
	lines := make([][]byte, len(t.lines))
	copy(lines, t.lines)
	t.mu.Unlock()
	var n int64
	for _, l := range lines {
		m, err := w.Write(l)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// Dropped reports how many events the byte budget evicted.
func (t *Trace) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}
