package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// TestManifestMatchesProgram keeps BENCHMARK.json equal to what this package
// defines; regenerate it with `go run ./benchmark --manifest > BENCHMARK.json`.
func TestManifestMatchesProgram(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from `go run ./benchmark --manifest`")
	}
}

// TestManifestWithinContract checks the limits the benchmark driver refuses
// a manifest for.
func TestManifestWithinContract(t *testing.T) {
	b, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > 64<<10 {
		t.Errorf("manifest is %d bytes, limit 64 KiB", len(b))
	}
	var m struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, contract allows 2 to 8", n)
	}
	for _, w := range m.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, contract allows 1 to 16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1 to 128", n)
	}
	setup := false
	for _, d := range append(append([]metricDef{}, m.EndToEnd...), m.PerLayer...) {
		use(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q outside the contract", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range m.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("the contract requires setup_s in s, lower is better")
	}
	// 4 + 22 runs per workload, all inside the driver's 3420 s
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", m.RunSeconds)
	}
}

// TestSmoke runs every workload at smoke scale, timed and traced, and checks
// that every named metric comes back finite with its unit, that no operation
// failed, and that the traced run leaves a span file.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all six workloads")
	}
	out := t.TempDir()
	pl := planFor("smoke", 0)
	for _, w := range workloads("smoke") {
		name, _ := w.id()
		for _, mode := range []struct {
			traced bool
			defs   []metricDef
		}{{false, endToEnd}, {true, perLayer}} {
			var r *report
			var err error
			if mode.traced {
				r, err = tracedRun(w, 42, pl, out)
			} else {
				r, err = timedRun(w, 42, pl, out)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, mode.traced, err)
			}
			if r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", name, mode.traced, r.Failed, r.Attempted, r.Failures)
			}
			if len(r.Metrics) != len(mode.defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, mode.traced, len(r.Metrics), len(mode.defs))
			}
			for _, d := range mode.defs {
				s, ok := r.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s: %s missing", name, d.Name)
				case math.IsNaN(s.Median) || math.IsInf(s.Median, 0):
					t.Errorf("%s: %s = %v", name, d.Name, s.Median)
				case s.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, want %q", name, d.Name, s.Unit, d.Unit)
				case !mode.traced && s.Median <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, d.Name, s.Median)
				}
			}
			if mode.traced {
				b, err := os.ReadFile(r.TraceFile)
				if err != nil {
					t.Fatalf("%s: span file: %v", name, err)
				}
				var spans []span
				if err := json.Unmarshal(b, &spans); err != nil || len(spans) == 0 {
					t.Errorf("%s: span file holds %d spans, err %v", name, len(spans), err)
				}
			}
		}
	}
	// every repetition removes its own WAL directory
	left, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		if e.IsDir() {
			t.Errorf("temporary directory %s left behind", e.Name())
		}
	}
}

// TestDriverLine runs one workload the way the benchmark driver does and
// checks the last line of output: exactly the four keys, and exactly the
// manifest's metrics for the mode.
func TestDriverLine(t *testing.T) {
	for trace, defs := range [][]metricDef{endToEnd, perLayer} {
		var out bytes.Buffer
		o := options{workload: "durable_jobs", seed: 7, seconds: 0.1, trace: trace, scale: "smoke", repeat: 1, outDir: t.TempDir()}
		if err := run(o, &out); err != nil {
			t.Fatalf("trace=%d: %v\n%s", trace, err, out.String())
		}
		lines := bytes.Split(bytes.TrimRight(out.Bytes(), "\n"), []byte("\n"))
		var line map[string]json.RawMessage
		if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
			t.Fatalf("trace=%d: last line is not JSON: %v", trace, err)
		}
		if len(line) != 4 {
			t.Errorf("trace=%d: result line has keys %v, want correct, attempted, failed, metrics", trace, line)
		}
		var parsed driverLine
		if err := json.Unmarshal(lines[len(lines)-1], &parsed); err != nil {
			t.Fatal(err)
		}
		if !parsed.Correct || parsed.Attempted < 1 || parsed.Failed != 0 {
			t.Errorf("trace=%d: %+v", trace, parsed)
		}
		if len(parsed.Metrics) != len(defs) {
			t.Errorf("trace=%d: %d metrics, manifest lists %d", trace, len(parsed.Metrics), len(defs))
		}
		for _, d := range defs {
			if v, ok := parsed.Metrics[d.Name]; !ok || v.Unit != d.Unit {
				t.Errorf("trace=%d: %s = %+v (present %v), want unit %q", trace, d.Name, v, ok, d.Unit)
			}
		}
	}
	if err := run(options{workload: "no_such", scale: "full", repeat: 1, outDir: t.TempDir()}, &bytes.Buffer{}); err == nil {
		t.Error("an unknown workload must be an error")
	}
}
