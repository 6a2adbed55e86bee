package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/metrics"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if q1, q3 := quartiles(xs); q1 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v, %v, want 2, 4", q1, q3)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := quantile([]float64{7}, 0.95); got != 7 {
		t.Errorf("single-sample quantile = %v, want 7", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its argument in place")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		got  float64
	}{
		{n: 50, want: 0.999, got: 0.5},    // 5 beyond p90: nothing qualifies
		{n: 100, want: 0.999, got: 0.90},  // exactly 10 beyond p90
		{n: 199, want: 0.999, got: 0.90},  // 9.95 beyond p95
		{n: 200, want: 0.999, got: 0.95},  // 10 beyond p95
		{n: 2000, want: 0.999, got: 0.99}, // 20 beyond p99, 2 beyond p99.9
		{n: 10000, want: 0.999, got: 0.999},
		{n: 10000, want: 0.95, got: 0.95}, // never above the wanted one
	} {
		if got := tailPercentile(c.n, c.want); got != c.got {
			t.Errorf("tailPercentile(%d, %v) = %v, want %v", c.n, c.want, got, c.got)
		}
	}
}

func TestTimeToErrorLogLinear(t *testing.T) {
	pts := []metrics.TracePoint{
		{Time: 0, Updates: 0, Error: 100},
		{Time: time.Second, Updates: 10, Error: 10},
		{Time: 3 * time.Second, Updates: 30, Error: 0.1},
	}
	// 1 is halfway from 10 to 0.1 on a log axis: 1 s + half of 2 s
	got, ok := timeToError(pts, 1)
	if !ok || !near(got.Seconds(), 2) {
		t.Errorf("timeToError(1) = %v, %v, want 2s", got, ok)
	}
	// sqrt(1000) is halfway from 100 to 10
	if got, ok := timeToError(pts, math.Sqrt(1000)); !ok || !near(got.Seconds(), 0.5) {
		t.Errorf("timeToError(31.6) = %v, %v, want 0.5s", got, ok)
	}
	if got, ok := timeToError(pts, 10); !ok || got != time.Second {
		t.Errorf("timeToError on a snapshot = %v, %v, want 1s", got, ok)
	}
	if got, ok := timeToError(pts, 1000); !ok || got != 0 {
		t.Errorf("target met at the first snapshot = %v, %v, want 0", got, ok)
	}
	if _, ok := timeToError(pts, 0.01); ok {
		t.Error("a target never reached must report ok=false")
	}
	// an error at or below zero cannot go on a log axis: linear between
	neg := []metrics.TracePoint{{Time: 0, Error: 1}, {Time: time.Second, Error: -1}}
	if got, ok := timeToError(neg, 0.5); !ok || !near(got.Seconds(), 0.25) {
		t.Errorf("linear fallback = %v, %v, want 0.25s", got, ok)
	}
	nan := []metrics.TracePoint{{Time: 0, Error: math.NaN()}}
	if _, ok := timeToError(nan, 1); ok {
		t.Error("NaN error reached a target")
	}
}

func TestUpdateLatencies(t *testing.T) {
	pts := []metrics.TracePoint{
		{Time: 0, Updates: 0},
		{Time: 10 * time.Millisecond, Updates: 5},
		{Time: 10 * time.Millisecond, Updates: 5}, // the finish snapshot repeats the last
		{Time: 40 * time.Millisecond, Updates: 15},
	}
	got := updateLatenciesMS(pts)
	if len(got) != 2 || !near(got[0], 2) || !near(got[1], 3) {
		t.Errorf("updateLatenciesMS = %v, want [2 3]", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "rep", StartNS: 0, EndNS: 100e9, Parent: -1},
		{Name: "solve", StartNS: 10e9, EndNS: 70e9, Parent: 0},
		{Name: "close", StartNS: 70e9, EndNS: 75e9, Parent: 0},
		{Name: "collect", StartNS: 20e9, EndNS: 30e9, Parent: 1},
		{Name: "collect", StartNS: 40e9, EndNS: 45e9, Parent: 1},
	}
	self := selfTimes(spans)
	for name, want := range map[string]float64{"rep": 35, "solve": 45, "close": 5, "collect": 15} {
		if !near(self[name], want) {
			t.Errorf("self time of %s = %v s, want %v", name, self[name], want)
		}
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.start("x", -1)
	tr.end(id)
	if n, seconds := tr.calls("x"); id != -1 || n != 0 || seconds != 0 {
		t.Error("a nil tracer must be inert")
	}
	ran := false
	if err := tr.within("x", -1, func() error { ran = true; return nil }); err != nil || !ran {
		t.Error("within on a nil tracer must still run the function")
	}
}

func TestRelDiff(t *testing.T) {
	if got := relDiff(100, 110); !near(got, 0.10) {
		t.Errorf("10 %% above: %v", got)
	}
	if got := relDiff(100, 80); !near(got, 0.20) {
		t.Errorf("20 %% below: %v", got)
	}
	if got := relDiff(0, 5); got != 0 {
		t.Errorf("zero base: %v", got)
	}
}
