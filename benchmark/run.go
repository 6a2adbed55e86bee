package main

import (
	"bufio"
	"fmt"
	"maps"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricDef mirrors one entry of BENCHMARK.json (a test keeps them equal).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees, on every workload.
//
//	setup_s           everything paid before the first update or job
//	time_to_target_s  solver workloads: wall time to the pinned target error;
//	                  durable_jobs: wall time until the whole batch is done,
//	                  the mid-batch restart included
//	ops_per_s         model updates (rounds for BSP solvers) per second of
//	                  solve wall; jobs per second including the restart
//	op_latency_*_ms   per-update latency over windows of one snapshot
//	                  interval; per-job Submit→Wait latency
//	peak_rss_mb       VmHWM of the process that ran the workload
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"time_to_target_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_latency_p50_ms", "ms", "lower", 0.25},
	{"op_latency_p95_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// runCtx is what one step of a run needs to know.
type runCtx struct {
	seed   int64
	outDir string
	tr     *tracer // nil on the timed run
	parent int
}

// workload is one named set of inputs; prepare is one complete set-up.
type workload interface {
	id() (name, why string)
	prepare(rc *runCtx) (instance, error)
}

// instance is a prepared workload: repetitions run against it.
type instance interface {
	rep(rc *runCtx) (outcome, error)
	// probes adds the per-layer numbers that come from outside a
	// repetition: public functions of a layer called in a loop at the
	// workload's shapes. Only the traced run calls it.
	probes(rc *runCtx, m map[string]float64) error
}

// outcome is what one repetition contributes.
type outcome struct {
	timeToTargetS float64
	opsPerS       float64
	latenciesMS   []float64
	wallS         float64 // wall time of the measured piece itself
	// workerS is worker count × wallS where every worker is either computing
	// or waiting for the whole of wallS (a solve); 0 otherwise.
	workerS float64
	// exact is a value that must repeat bit for bit across repetitions (the
	// final error of a BSP solve); NaN when the workload has none.
	exact     float64
	attempted int
	failures  []string
	layers    map[string]float64 // per-layer numbers only a repetition can give
}

// sample summarises a metric's values over a run.
type sample struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func newSample(unit string, values []float64) sample {
	q1, q3 := quartiles(values)
	return sample{Unit: unit, Median: median(values), Q1: q1, Q3: q3, N: len(values)}
}

// report is one run of one workload.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]sample `json:"metrics"`
	TraceFile string            `json:"trace_file,omitempty"`
}

// plan sizes a run: how often set-up is sampled, how long and how often the
// repetitions run, how many untraced repetitions the tracing overhead is
// measured against.
type plan struct {
	seconds      float64
	maxSetups    int
	minReps      int
	overheadReps int
}

func planFor(scale string, seconds float64) plan {
	if scale == "smoke" {
		return plan{seconds: 0, maxSetups: 1, minReps: 1, overheadReps: 1}
	}
	return plan{seconds: seconds, maxSetups: 15, minReps: 3, overheadReps: 2}
}

// setupBudget caps the time spent on repeated set-ups.
const setupBudget = 3 * time.Second

// prepareSampled sets the workload up several times — until maxSetups or
// setupBudget is spent, at least once — and returns the last instance with
// every set-up's duration.
func prepareSampled(w workload, rc *runCtx, maxSetups int) (instance, []float64, error) {
	var inst instance
	var took []float64
	begin := time.Now()
	for len(took) == 0 || (len(took) < maxSetups && time.Since(begin) < setupBudget) {
		runtime.GC() // as before a repetition: start from a collected heap
		t0 := time.Now()
		var err error
		if inst, err = w.prepare(rc); err != nil {
			return nil, nil, err
		}
		took = append(took, time.Since(t0).Seconds())
	}
	return inst, took, nil
}

// tally folds repetitions into a report's failure counts.
type tally struct {
	attempted, failed int
	failures          []string
	exact             []float64
}

func (t *tally) add(o outcome) {
	t.attempted += o.attempted
	t.failed += min(len(o.failures), o.attempted)
	t.failures = append(t.failures, o.failures...)
	if !math.IsNaN(o.exact) {
		t.exact = append(t.exact, o.exact)
	}
}

// finish runs the cross-repetition check and stamps the report.
func (t *tally) finish(r *report) {
	for _, v := range t.exact[min(1, len(t.exact)):] {
		if math.Abs(v-t.exact[0]) > 1e-12*math.Abs(t.exact[0]) {
			t.failed++
			t.failures = append(t.failures, fmt.Sprintf("BSP final error did not repeat: %.17g then %.17g", t.exact[0], v))
			break
		}
	}
	t.failed = min(t.failed, t.attempted)
	r.Attempted, r.Failed = t.attempted, t.failed
	if len(t.failures) > 10 {
		t.failures = append(t.failures[:10], fmt.Sprintf("... and %d more", len(t.failures)-10))
	}
	r.Failures = t.failures
}

// timedRun measures the end-to-end metrics: sampled set-up, one discarded
// warm-up repetition (the first is about twice as slow: heap growth, pools),
// then repetitions until the time budget is spent. Tracing is off.
func timedRun(w workload, seed int64, pl plan, outDir string) (*report, error) {
	name, _ := w.id()
	rc := &runCtx{seed: seed, outDir: outDir, parent: -1}
	inst, setups, err := prepareSampled(w, rc, pl.maxSetups)
	if err != nil {
		return nil, err
	}
	if _, err := inst.rep(rc); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	var tl tally
	var toTarget, ops, p50, tail, latencies []float64
	begin := time.Now()
	for n := 0; n < pl.minReps || time.Since(begin).Seconds() < pl.seconds; n++ {
		// every repetition starts from a collected heap, so that what one
		// leaves behind neither slows the next nor piles up in peak_rss_mb
		runtime.GC()
		o, err := inst.rep(rc)
		if err != nil {
			return nil, err
		}
		tl.add(o)
		if len(o.failures) > 0 {
			continue // a failed repetition has no valid timing
		}
		toTarget = append(toTarget, o.timeToTargetS)
		ops = append(ops, o.opsPerS)
		p50 = append(p50, quantile(o.latenciesMS, 0.5))
		tail = append(tail, quantile(o.latenciesMS, 0.95))
		latencies = append(latencies, o.latenciesMS...)
	}
	r := &report{Workload: name, Seed: seed, Metrics: map[string]sample{}}
	tl.finish(r)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	for i, values := range [][]float64{setups, toTarget, ops, p50, tail, {rss}} {
		r.Metrics[endToEnd[i].Name] = newSample(endToEnd[i].Unit, values)
	}
	// latency percentiles are read from the latencies of all repetitions
	// pooled, so that the tail has ten samples beyond it; the quartiles shown
	// stay those of the per-repetition percentiles
	for name, q := range map[string]float64{"op_latency_p50_ms": 0.5, "op_latency_p95_ms": tailPercentile(len(latencies), 0.95)} {
		s := r.Metrics[name]
		s.Median, s.N = quantile(latencies, q), len(latencies)
		r.Metrics[name] = s
	}
	return r, nil
}

// tracedRun gives the per-layer numbers: one set-up and one repetition with
// spans on, counter deltas around that repetition, and the probes. A few
// untraced repetitions first give the tracing overhead its baseline.
func tracedRun(w workload, seed int64, pl plan, outDir string) (*report, error) {
	name, _ := w.id()
	tr := newTracer(name)
	setupSpan := tr.start("setup", -1)
	inst, err := w.prepare(&runCtx{seed: seed, outDir: outDir, tr: tr, parent: setupSpan})
	tr.end(setupSpan)
	if err != nil {
		return nil, err
	}
	plain := &runCtx{seed: seed, outDir: outDir, parent: -1}
	if _, err := inst.rep(plain); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	var tl tally
	var untraced []float64
	for i := 0; i < pl.overheadReps; i++ {
		runtime.GC() // as in a timed run
		o, err := inst.rep(plain)
		if err != nil {
			return nil, err
		}
		tl.add(o)
		untraced = append(untraced, o.wallS)
	}

	runtime.GC()
	repSpan := tr.start("rep", -1)
	before := readCounters()
	o, err := inst.rep(&runCtx{seed: seed, outDir: outDir, tr: tr, parent: repSpan})
	delta := readCounters().sub(before)
	tr.end(repSpan)
	if err != nil {
		return nil, err
	}
	tl.add(o)

	m := maps.Clone(o.layers)
	if m == nil {
		m = map[string]float64{}
	}
	counterLayers(m, delta)
	spanLayers(m, tr)
	if o.workerS > 0 {
		m["trace.worker_time_coverage"] = (delta["task_compute.sum"] + delta["task_wait.sum"]) / o.workerS
	}
	m["trace.overhead_share"] = (o.wallS - median(untraced)) / median(untraced)
	probeSpan := tr.start("probes", -1)
	err = inst.probes(&runCtx{seed: seed, outDir: outDir, tr: tr, parent: probeSpan}, m)
	tr.end(probeSpan)
	if err != nil {
		return nil, err
	}

	r := &report{Workload: name, Seed: seed, Traced: true, Metrics: map[string]sample{}}
	tl.finish(r)
	for k := range m {
		if _, ok := perLayerUnit[k]; !ok {
			return nil, fmt.Errorf("per-layer metric %q is not declared", k)
		}
	}
	for _, d := range perLayer {
		r.Metrics[d.Name] = newSample(d.Unit, []float64{m[d.Name]})
	}
	if r.TraceFile, err = tr.write(outDir); err != nil {
		return nil, err
	}
	return r, nil
}

// counterLayers turns a counter delta taken around one repetition into the
// per-layer numbers of the layers that own the counters.
func counterLayers(m map[string]float64, c counters) {
	m["core.tasks_dispatched"] = c["tasks_dispatched"]
	m["core.results"] = c["results"]
	m["core.updates"] = c["updates"]
	m["core.task_compute_s"] = c["task_compute.sum"]
	m["core.task_wait_s"] = c["task_wait.sum"]
	m["core.task_wait_us_mean"] = c.mean("task_wait") * 1e6
	m["core.dispatch_roundtrip_us_mean"] = c.mean("dispatch_roundtrip") * 1e6
	m["core.staleness_mean"] = c.mean("staleness")
	if busy := c["task_compute.sum"] + c["task_wait.sum"]; busy > 0 {
		m["core.worker_busy_share"] = c["task_compute.sum"] / busy
	}
	m["opt.apply_s"] = c["apply.sum"]
	m["opt.apply_us_mean"] = c.mean("apply") * 1e6
	m["opt.settle_s"] = c["settle.sum"]
	m["opt.settle_count"] = c["settle.n"]
	for _, k := range []string{"select_hits", "select_misses", "select_rebuilds", "select_fallbacks"} {
		m["opt."+k] = c[k]
	}
	m["cluster.wire_tx_bytes"] = c["wire_tx_bytes"]
	m["cluster.wire_rx_bytes"] = c["wire_rx_bytes"]
	m["cluster.wire_frames"] = c["wire_frames"]
	m["cluster.wire_gob_frames"] = c["wire_gob_frames"]
	if c["updates"] > 0 {
		m["cluster.wire_bytes_per_update"] = (c["wire_tx_bytes"] + c["wire_rx_bytes"]) / c["updates"]
	}
	m["store.appends"] = c["wal_appends"]
	m["store.append_s"] = c["wal_append.sum"]
	m["store.append_us_mean"] = c.mean("wal_append") * 1e6
	m["store.fsync_s"] = c["wal_fsync.sum"]
	m["store.fsync_us_mean"] = c.mean("wal_fsync") * 1e6
	m["store.compactions"] = c["wal_compactions"]
	m["store.replayed_records"] = c["wal_replayed"]
}

// spanLayers reads the spans recorded around calls into a layer: the mean
// duration of one such call, in seconds.
func spanLayers(m map[string]float64, tr *tracer) {
	for span, metric := range map[string]string{
		"dataset.generate":      "dataset.generate_s",
		"opt.reference_optimum": "opt.reference_optimum_s",
		"async.engine_new":      "async.engine_new_s",
		"async.solve":           "async.solve_s",
		"async.engine_close":    "async.engine_close_s",
		"rdd.distribute":        "rdd.distribute_s",
		"store.open":            "store.open_s",
		"jobs.new":              "jobs.new_s",
		"jobs.drain_close":      "jobs.drain_close_s",
	} {
		if n, seconds := tr.calls(span); n > 0 {
			m[metric] = seconds / float64(n)
		}
	}
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status: %w", sc.Err())
}
