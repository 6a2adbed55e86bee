// Command benchmark is the repository's benchmark: six named workloads, the
// end-to-end metrics a user of the engine or the job service sees, and a
// traced mode that splits each workload's time over the layers. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	go run ./benchmark                               every workload, one set
//	go run ./benchmark --repeat 2                    two sets, compared against the bounds
//	go run ./benchmark --trace 1                     per-layer numbers and span files
//	go run ./benchmark --workload wire_asgd --seed 7 --seconds 10 --trace 0
//
// With --workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; that is the form the
// benchmark driver runs (through run.sh).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	scale    string
	repeat   int
	jsonPath string
	outDir   string
	manifest bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process (default: all, each in a child process)")
	flag.Int64Var(&o.seed, "seed", 42, "derives the dataset, engine and worker seeds")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long the timed repetitions of one workload run")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run: per-layer metrics and a span file instead of end-to-end metrics")
	flag.StringVar(&o.scale, "scale", "full", "full, or smoke (about 1/20 of every budget, for tests)")
	flag.IntVar(&o.repeat, "repeat", 1, "with no --workload: run this many full sets and compare their medians against the bounds")
	flag.StringVar(&o.jsonPath, "json", "", "also write the results to this file")
	flag.StringVar(&o.outDir, "out", "benchmark/out", "directory for span files and temporary WAL directories")
	flag.BoolVar(&o.manifest, "manifest", false, "print BENCHMARK.json as this program defines it, and exit")
	flag.Parse()
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, stdout io.Writer) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if o.scale != "full" && o.scale != "smoke" {
		return fmt.Errorf("unknown --scale %q (full, smoke)", o.scale)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("--trace takes 0 or 1, got %d", o.trace)
	}
	if o.manifest {
		b, err := manifestJSON()
		if err == nil {
			_, err = stdout.Write(b)
		}
		return err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	fmt.Fprintln(stdout, machineHeader(o))
	if o.workload == "" {
		return runSets(o, stdout)
	}
	for _, w := range workloads(o.scale) {
		if name, _ := w.id(); name == o.workload {
			return runOne(w, o, stdout)
		}
	}
	return fmt.Errorf("unknown workload %q", o.workload)
}

func machineHeader(o options) string {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("# nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d scale=%s seconds=%g",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, o.seed, o.scale, o.seconds)
}

// runSeconds is BENCHMARK.json's run_seconds: how long the driver lets the
// timed repetitions of one run go on (the --seconds default).
const runSeconds = 10

// manifestJSON renders BENCHMARK.json from the tables in this package, so
// the file at the repository root cannot drift from what the program prints
// (a test compares them).
func manifestJSON() ([]byte, error) {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []metricDef     `json:"end_to_end"`
		PerLayer   []metricDef     `json:"per_layer"` // no bound: omitted
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads("full") {
		name, why := w.id()
		m.Workloads = append(m.Workloads, workloadEntry{name, why})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	return append(b, '\n'), err
}

// driverLine is the one JSON object the benchmark driver reads.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload in this process and prints its metrics by name
// with unit, median, quartiles and sample count, then the driver's line.
func runOne(w workload, o options, stdout io.Writer) error {
	var r *report
	var err error
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
		r, err = tracedRun(w, o.seed, planFor(o.scale, o.seconds), o.outDir)
	} else {
		r, err = timedRun(w, o.seed, planFor(o.scale, o.seconds), o.outDir)
	}
	if err != nil {
		return err
	}
	line := driverLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverValue{}}
	fmt.Fprintf(stdout, "%-16s %-32s %14s %-8s %14s %14s %4s\n", "workload", "metric", "median", "unit", "q1", "q3", "n")
	for _, d := range defs {
		s := r.Metrics[d.Name]
		if math.IsNaN(s.Median) || math.IsInf(s.Median, 0) {
			return fmt.Errorf("%s: %s has no valid sample (%d of %d operations failed: %s)",
				r.Workload, d.Name, r.Failed, r.Attempted, strings.Join(r.Failures, "; "))
		}
		fmt.Fprintf(stdout, "%-16s %-32s %14.6g %-8s %14.6g %14.6g %4d\n", r.Workload, d.Name, s.Median, s.Unit, s.Q1, s.Q3, s.N)
		line.Metrics[d.Name] = driverValue{Value: s.Median, Unit: s.Unit}
	}
	if r.Traced {
		fmt.Fprintf(stdout, "# spans: %s\n", r.TraceFile)
		for _, check := range []string{"trace.worker_time_coverage", "trace.probe_loop_coverage", "trace.job_latency_coverage"} {
			if v := r.Metrics[check].Median; v != 0 {
				verdict := "PASS"
				if math.Abs(v-1) > 0.05 {
					verdict = "FAIL"
				}
				fmt.Fprintf(stdout, "# sum check %-28s %.4f %s (within 5 %% of 1)\n", check, v, verdict)
			}
		}
	}
	fmt.Fprintf(stdout, "%-16s failed_share %d/%d\n", r.Workload, r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Fprintf(stdout, "# FAILED %s\n", f)
	}
	if o.jsonPath != "" {
		if err := writeJSON(o.jsonPath, r); err != nil {
			return err
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !line.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", r.Workload, r.Failed, r.Attempted)
	}
	return nil
}

// runSets runs every workload, each in a child process of this binary so
// that peak_rss_mb is the workload's own, o.repeat times over, and compares
// the sets' medians against the bounds.
func runSets(o options, stdout io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	medians := map[string]map[string][]float64{} // workload → metric → one median per set
	var failed []string
	var names []string
	for set := 0; set < o.repeat; set++ {
		for _, w := range workloads(o.scale) {
			name, _ := w.id()
			if set == 0 {
				names = append(names, name)
			}
			cmd := exec.Command(exe,
				"--workload", name, "--seed", strconv.FormatInt(o.seed, 10),
				"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
				"--trace", strconv.Itoa(o.trace), "--scale", o.scale, "--out", o.outDir)
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, os.Stderr
			runErr := cmd.Run()
			lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
			last := lines[len(lines)-1]
			var line driverLine
			if err := json.Unmarshal([]byte(last), &line); err != nil {
				stdout.Write(out.Bytes())
				return fmt.Errorf("%s (set %d): no result: %v", name, set+1, runErr)
			}
			fmt.Fprintf(stdout, "## set %d  %s\n%s\n", set+1, name, strings.Join(lines[1:len(lines)-1], "\n"))
			if runErr != nil || !line.Correct {
				failed = append(failed, fmt.Sprintf("%s (set %d)", name, set+1))
			}
			if medians[name] == nil {
				medians[name] = map[string][]float64{}
			}
			for metric, v := range line.Metrics {
				medians[name][metric] = append(medians[name][metric], v.Value)
			}
		}
	}
	if o.trace == 0 {
		sgd, asgd := medians["straggler_sgd"]["time_to_target_s"], medians["straggler_asgd"]["time_to_target_s"]
		for set := range sgd {
			fmt.Fprintf(stdout, "## set %d  async_speedup = straggler_sgd / straggler_asgd time_to_target_s = %.3f\n", set+1, sgd[set]/asgd[set])
		}
	}
	disagree := 0
	if o.repeat > 1 && o.trace == 0 {
		fmt.Fprintf(stdout, "## agreement of %d sets, each median against set 1\n", o.repeat)
		fmt.Fprintf(stdout, "%-16s %-20s %-40s %9s %7s %s\n", "workload", "metric", "medians", "rel.diff", "bound", "")
		for _, name := range names {
			for _, d := range endToEnd {
				ms := medians[name][d.Name]
				worst := 0.0
				for _, m := range ms[1:] {
					worst = math.Max(worst, relDiff(ms[0], m))
				}
				verdict := "PASS"
				if worst > d.Bound {
					verdict = "FAIL"
					disagree++
				}
				fmt.Fprintf(stdout, "%-16s %-20s %-40s %8.1f%% %6.0f%% %s\n", name, d.Name, formatFloats(ms), 100*worst, 100*d.Bound, verdict)
			}
		}
	}
	if o.jsonPath != "" {
		if err := writeJSON(o.jsonPath, map[string]any{"machine": machineHeader(o), "medians_per_set": medians}); err != nil {
			return err
		}
	}
	switch {
	case len(failed) > 0:
		return fmt.Errorf("failed checks in %s", strings.Join(failed, ", "))
	case disagree > 0:
		return fmt.Errorf("%d (metric, workload) pairs disagree between sets by more than their bound", disagree)
	}
	return nil
}

func formatFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 5, 64)
	}
	return strings.Join(parts, " ")
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
