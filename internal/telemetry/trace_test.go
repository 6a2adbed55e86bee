package telemetry

import (
	"bufio"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func traceLines(t *testing.T, tr *Trace) []map[string]any {
	t.Helper()
	var sb strings.Builder
	if _, err := tr.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %q is not JSON: %v", sc.Text(), err)
		}
		out = append(out, m)
	}
	return out
}

func TestTraceEvents(t *testing.T) {
	tr := NewTrace("job-000001", 0)
	tr.Event("queued", "tenant", "acme", "priority", 3)
	tr.Event("dispatched", "engine", 0)
	lines := traceLines(t, tr)
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	first := lines[0]
	if first["event"] != "queued" || first["run"] != "job-000001" {
		t.Fatalf("first line = %v", first)
	}
	if first["tenant"] != "acme" || first["priority"] != float64(3) {
		t.Fatalf("args missing: %v", first)
	}
	if first["seq"] != float64(1) || lines[1]["seq"] != float64(2) {
		t.Fatalf("seq not monotonic: %v %v", first["seq"], lines[1]["seq"])
	}
	if _, ok := first["time"]; !ok {
		t.Fatalf("no timestamp: %v", first)
	}
	if _, ok := first["level"]; ok {
		t.Fatalf("level key must be dropped: %v", first)
	}
	if tr.run != "job-000001" || len(tr.lines) != 2 || tr.Dropped() != 0 {
		t.Fatalf("run=%q len=%d dropped=%d", tr.run, len(tr.lines), tr.Dropped())
	}
}

func TestTraceBounded(t *testing.T) {
	tr := NewTrace("r", 512)
	for i := 0; i < 100; i++ {
		tr.Event("tick", "i", i, "pad", "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")
	}
	if tr.Dropped() == 0 {
		t.Fatal("byte budget never dropped anything")
	}
	lines := traceLines(t, tr)
	if len(lines) == 0 || len(lines) >= 100 {
		t.Fatalf("retained %d lines", len(lines))
	}
	// the newest event always survives
	last := lines[len(lines)-1]
	if last["i"] != float64(99) {
		t.Fatalf("newest event evicted: %v", last)
	}
}

func TestTraceNilNoOp(t *testing.T) {
	var tr *Trace
	tr.Event("ignored")
	if n, err := tr.WriteTo(&strings.Builder{}); n != 0 || err != nil {
		t.Fatalf("nil WriteTo = %d, %v", n, err)
	}
	if tr.Dropped() != 0 {
		t.Fatal("nil Dropped must be zero")
	}
}

func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace("r", 1<<20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr.Event("e", "g", g, "i", i)
			}
		}(g)
	}
	wg.Wait()
	lines := traceLines(t, tr)
	if len(lines) != 400 {
		t.Fatalf("got %d lines, want 400", len(lines))
	}
	seen := map[float64]bool{}
	for _, l := range lines {
		s := l["seq"].(float64)
		if seen[s] {
			t.Fatalf("duplicate seq %v", s)
		}
		seen[s] = true
	}
}
