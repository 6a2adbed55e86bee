package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// span is one timed call from the benchmark into a layer of the program.
// Parent is the index of the enclosing span in the trace file, -1 for a
// root; all spans of one file share the workload and repetition.
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
}

// tracer records spans in memory; a nil tracer records nothing, which is how
// the timed run keeps tracing off.
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// start opens a span under parent (-1 for a root) and returns its index.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Workload: t.workload, StartNS: now, EndNS: now, Parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// within runs fn inside a span.
func (t *tracer) within(name string, parent int, fn func() error) error {
	id := t.start(name, parent)
	defer t.end(id)
	return fn()
}

// calls counts the spans called name and sums their durations in seconds.
func (t *tracer) calls(name string) (n int, seconds float64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			n++
			seconds += float64(s.EndNS-s.StartNS) / 1e9
		}
	}
	return n, seconds
}

// selfTimes is each span name's time not covered by its child spans, in
// seconds. Children of one parent are assumed not to overlap each other
// (the benchmark opens sibling spans from one goroutine).
func selfTimes(spans []span) map[string]float64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		out[s.Name] += float64(s.EndNS-s.StartNS-child[i]) / 1e9
	}
	return out
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as <dir>/trace-<workload>.json.
func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.workload+".json")
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

// counters is a snapshot of the process-global telemetry families the
// layers already export, keyed by short name; a histogram contributes
// "<name>.n" and "<name>.sum". Registration is get-or-create, so asking for a
// family by name returns the program's own instance; nothing in the program
// changes. One engine or scheduler runs at a time in this process, so a
// delta taken around a solve or a job batch belongs to it alone.
type counters map[string]float64

func readCounters() counters {
	r := telemetry.Default()
	c := counters{}
	for short, name := range map[string]string{
		"tasks_dispatched": "async_core_tasks_dispatched_total",
		"results":          "async_core_results_total",
		"updates":          "async_core_updates_total",
		"select_hits":      "async_opt_select_hits_total",
		"select_misses":    "async_opt_select_misses_total",
		"select_rebuilds":  "async_opt_select_rebuilds_total",
		"select_fallbacks": "async_opt_select_fallbacks_total",
		"wal_appends":      "async_wal_appends_total",
		"wal_compactions":  "async_wal_compactions_total",
		"wal_replayed":     "async_wal_replayed_records_total",
	} {
		c[short] = float64(r.Counter(name, "").Value())
	}
	for short, name := range map[string]string{
		"staleness":          "async_core_staleness",
		"task_wait":          "async_core_task_wait_seconds",
		"task_compute":       "async_core_task_compute_seconds",
		"dispatch_roundtrip": "async_core_dispatch_roundtrip_seconds",
		"apply":              "async_opt_apply_seconds",
		"settle":             "async_opt_settle_seconds",
		"wal_append":         "async_wal_append_seconds",
		"wal_fsync":          "async_wal_fsync_seconds",
	} {
		// the buckets of the first registration (the program's) win
		h := r.Histogram(name, "", nil)
		c[short+".n"] = float64(h.Count())
		c[short+".sum"] = h.Sum()
	}
	for _, dir := range []string{"tx", "rx"} {
		for _, format := range []string{"binary", "gob"} {
			frames := float64(r.CounterVec("async_wire_"+dir+"_frames_total", "", "format").With(format).Value())
			c["wire_frames"] += frames
			if format == "gob" {
				c["wire_gob_frames"] += frames
			}
			c["wire_"+dir+"_bytes"] += float64(r.CounterVec("async_wire_"+dir+"_bytes_total", "", "format").With(format).Value())
		}
	}
	return c
}

// sub is the change from before to c.
func (c counters) sub(before counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - before[k]
	}
	return d
}

// mean is a histogram's mean observation over the snapshot.
func (c counters) mean(hist string) float64 {
	if c[hist+".n"] == 0 {
		return 0
	}
	return c[hist+".sum"] / c[hist+".n"]
}
