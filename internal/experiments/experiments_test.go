package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/metrics"
)

// tinyOpts keeps experiment tests fast: tiny datasets, short task floor,
// few rounds.
func tinyOpts() Options {
	return Options{
		Scale:       dataset.ScaleTiny,
		Seed:        5,
		MinTask:     500 * time.Microsecond,
		SyncUpdates: 20,
	}
}

func TestTable2(t *testing.T) {
	tb, err := Table2(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	out := tb.Format()
	for _, want := range []string{"rcv1-like", "mnist8m-like", "epsilon-like", "density"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestFig2SeriesConverge(t *testing.T) {
	series, err := Fig2(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 6 { // 3 datasets × {Mllib, SGD-in-ASYNC}
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		first := s.Trace.Points[0].Error
		last := s.Trace.FinalError()
		if !(last < first) {
			t.Fatalf("%s did not improve: %v → %v", s.Label, first, last)
		}
	}
	// pairwise: Mllib and SGD-in-ASYNC end within an order of magnitude
	for i := 0; i < len(series); i += 2 {
		em, ea := series[i].Trace.FinalError(), series[i+1].Trace.FinalError()
		if em/ea > 20 || ea/em > 20 {
			t.Fatalf("fig2 pair diverges: %s=%v vs %s=%v", series[i].Label, em, series[i+1].Label, ea)
		}
	}
}

// sweepOutputs holds what each sweep printed, by sweep id, so the tests that
// check different views of one sweep share a single run of its cells.
var sweepOutputs = map[string]string{}

// sweepOutput runs the sweep that answers to id, once per test binary, and
// returns its printed output.
func sweepOutput(t *testing.T, id string) string {
	t.Helper()
	key := lookup(id).ids[0]
	if out, ok := sweepOutputs[key]; ok {
		return out
	}
	var sb strings.Builder
	if err := Run(tinyOpts(), id, &sb); err != nil {
		t.Fatal(err)
	}
	sweepOutputs[key] = sb.String()
	return sb.String()
}

// TestCDSShape checks the curves and speed-ups of the Fig. 3/4 sweep and the
// paper's claim on its wait table.
func TestCDSShape(t *testing.T) {
	out := sweepOutput(t, "fig3")
	if n := strings.Count(out, "\n--- "); n+1 != 3*4*2 || !strings.HasPrefix(out, "--- ") {
		t.Fatalf("curves = %d, want 24:\n%s", n+1, out)
	}
	if rows := tableRows(t, out, "speedup:"); len(rows) != 3*4 {
		t.Fatalf("speed-up rows = %d, want 12", len(rows))
	}
	// Paper claim (Fig. 3/4): sync wait time grows with delay; async stays
	// flat. Compare delay=0 vs delay=1.0 for each dataset's sync runs.
	wait := tableRows(t, out, "Fig 4:")
	for _, ds := range []string{"rcv1-like", "mnist8m-like", "epsilon-like"} {
		sync0, sync1 := wait[ds+"/SGD-0.0"], wait[ds+"/SGD-1.0"]
		async1 := wait[ds+"/ASGD-1.0"]
		if sync0 == nil || sync1 == nil || wait[ds+"/ASGD-0.0"] == nil || async1 == nil {
			t.Fatalf("missing series for %s: %v", ds, wait)
		}
		if sync1["avg_wait_ms"] <= sync0["avg_wait_ms"] {
			t.Errorf("%s: sync wait did not grow with delay: %v vs %v", ds, sync0["avg_wait_ms"], sync1["avg_wait_ms"])
		}
		// async wait under 100%% delay stays below sync wait under 100%% delay
		if async1["avg_wait_ms"] >= sync1["avg_wait_ms"] {
			t.Errorf("%s: async wait %v not below sync wait %v at delay 1.0", ds, async1["avg_wait_ms"], sync1["avg_wait_ms"])
		}
		// sync total runtime grows materially with the straggler
		if sync1["total_ms"] <= sync0["total_ms"] {
			t.Errorf("%s: sync total did not grow with delay: %v vs %v", ds, sync0["total_ms"], sync1["total_ms"])
		}
	}
}

// TestRunFig4EmitsWaitTable: the Fig. 4 id runs the Fig. 3 sweep, which
// prints the wait and total time of all 24 of its runs.
func TestRunFig4EmitsWaitTable(t *testing.T) {
	wait := tableRows(t, sweepOutput(t, "fig4"), "Fig 4:")
	if len(wait) != 3*4*2 {
		t.Fatalf("wait rows = %d, want 24", len(wait))
	}
	for _, ds := range []string{"rcv1-like", "mnist8m-like", "epsilon-like"} {
		row := wait[ds+"/ASGD-1.0"]
		if _, ok := row["avg_wait_ms"]; !ok {
			t.Fatalf("%s/ASGD-1.0 has no avg_wait_ms: %v", ds, wait)
		}
	}
}

// tableRows parses the printed table whose title starts with title: row
// label → column → value. Every cell must be a number; a label may hold
// spaces.
func tableRows(t *testing.T, out, title string) map[string]map[string]float64 {
	t.Helper()
	_, body, ok := strings.Cut(out, "# "+title)
	if !ok {
		t.Fatalf("no table %q in:\n%s", title, out)
	}
	lines := strings.Split(body, "\n")
	cols := strings.Fields(lines[1])
	rows := map[string]map[string]float64{}
	for _, line := range lines[2:] {
		f := strings.Fields(line)
		if len(f) <= len(cols) || strings.HasPrefix(line, "#") {
			break
		}
		label, cells := strings.Join(f[:len(f)-len(cols)], " "), f[len(f)-len(cols):]
		row := map[string]float64{}
		for i, c := range cols {
			v, err := strconv.ParseFloat(strings.TrimSuffix(cells[i], "x"), 64)
			if err != nil {
				t.Fatalf("%s/%s: %v", label, c, err)
			}
			row[c] = v
		}
		rows[label] = row
	}
	return rows
}

func TestWaitTableFormat(t *testing.T) {
	tr := &metrics.Trace{Algorithm: "SGD", Dataset: "d", Total: time.Second}
	tb := WaitTable("Fig 4", []Series{{Label: "d/SGD-0.0", Trace: tr}})
	out := tb.Format()
	if !strings.Contains(out, "Fig 4") || !strings.Contains(out, "d/SGD-0.0") {
		t.Fatalf("wait table: %s", out)
	}
}

func TestPCSShape(t *testing.T) {
	if testing.Short() {
		t.Skip("PCS spins 32 workers")
	}
	o := tinyOpts()
	series, err := PCS(o, SGDPair)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 { // 2 datasets × {sync, async}
		t.Fatalf("series = %d", len(series))
	}
	// async must beat sync in total time under production stragglers at the
	// same task budget
	for i := 0; i < len(series); i += 2 {
		syncTr, asyncTr := series[i].Trace, series[i+1].Trace
		if asyncTr.Total >= syncTr.Total {
			t.Errorf("%s: async total %v not below sync total %v",
				series[i+1].Label, asyncTr.Total, syncTr.Total)
		}
		if asyncTr.MeanWait() >= syncTr.MeanWait() {
			t.Errorf("%s: async wait %v not below sync wait %v",
				series[i+1].Label, asyncTr.MeanWait(), syncTr.MeanWait())
		}
	}
	tb := Table3From(series, nil)
	out := tb.Format()
	if !strings.Contains(out, "mnist8m-like") {
		t.Fatalf("table3: %s", out)
	}
	sp := Speedups(series)
	if len(sp.Rows) != 2 {
		t.Fatalf("speedup rows = %d", len(sp.Rows))
	}
}

func TestAblationBroadcast(t *testing.T) {
	tb, err := AblationBroadcast(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	bytes := map[string]int64{}
	for _, r := range tb.Rows {
		var b int64
		if _, err := fmtSscan(r.Values["bytes_shipped"], &b); err != nil {
			t.Fatalf("%s: %v", r.Label, err)
		}
		bytes[r.Label] = b
	}
	// the whole point: full-table ships strictly more bytes than either
	// versioned arm
	for _, arm := range []string{"version-history", "saga"} {
		b, ok := bytes[arm]
		if !ok || bytes["full-table"] <= b {
			t.Fatalf("full-table bytes %d not above %s bytes %d (rows %+v)", bytes["full-table"], arm, b, tb.Rows)
		}
	}
}

func TestAblationLocalReduce(t *testing.T) {
	tb, err := AblationLocalReduce(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	var localBytes, perSampleBytes int64
	for _, r := range tb.Rows {
		switch r.Label {
		case "local-reduce":
			if _, err := fmtSscan(r.Values["bytes_shipped"], &localBytes); err != nil {
				t.Fatal(err)
			}
		case "per-sample":
			if _, err := fmtSscan(r.Values["bytes_shipped"], &perSampleBytes); err != nil {
				t.Fatal(err)
			}
		}
	}
	if perSampleBytes < localBytes {
		t.Fatalf("per-sample bytes %d below local-reduce bytes %d", perSampleBytes, localBytes)
	}
}

func TestAblationBarrier(t *testing.T) {
	rows := tableRows(t, sweepOutput(t, "ablation-barrier"), "ablation: barrier control")
	for _, want := range []string{"BSP", "SSP(4)", "SSP(16)", "SSP(64)", "ASP"} {
		if rows[want] == nil {
			t.Fatalf("missing barrier %s in %v", want, rows)
		}
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
}

// TestSSPSweep checks the paper's trade-off on the barrier sweep.
func TestSSPSweep(t *testing.T) {
	rows := tableRows(t, sweepOutput(t, "ext-sspsweep"), "ablation: barrier control")
	bsp, asp := rows["BSP"], rows["ASP"]
	if bsp == nil || asp == nil {
		t.Fatalf("missing BSP or ASP in %v", rows)
	}
	// hardware efficiency: ASP runs faster than BSP under the straggler
	if asp["total_ms"] >= bsp["total_ms"] {
		t.Errorf("ASP %vms not below BSP %vms", asp["total_ms"], bsp["total_ms"])
	}
	// statistical efficiency: BSP observes no more staleness than ASP
	if bsp["max_staleness"] > asp["max_staleness"] {
		t.Errorf("BSP max staleness %v above ASP %v", bsp["max_staleness"], asp["max_staleness"])
	}
}

func TestAblationStalenessLR(t *testing.T) {
	if testing.Short() {
		t.Skip("PCS spins 32 workers")
	}
	rows := tableRows(t, sweepOutput(t, "ablation-staleness"), "ablation: staleness-dependent learning rate")
	if len(rows) != 2 || rows["fixed-lr"] == nil || rows["staleness-lr"] == nil {
		t.Fatalf("arms = %v, want fixed-lr and staleness-lr", rows)
	}
}

// TestStalenessDistribution checks the staleness buckets that the
// staleness ablation prints for its two arms.
func TestStalenessDistribution(t *testing.T) {
	if testing.Short() {
		t.Skip("spins 32 workers")
	}
	out := sweepOutput(t, "ext-staleness-dist")
	// six staleness buckets and the result count, one column per arm
	rows := tableRows(t, out, "staleness distribution")
	if len(rows) != 7 {
		t.Fatalf("distribution rows = %d, want 7:\n%s", len(rows), out)
	}
	for _, arm := range []string{"fixed-lr", "staleness-lr"} {
		var fracSum float64
		for label, row := range rows {
			if _, ok := row[arm]; !ok {
				t.Fatalf("%s: no %s column", label, arm)
			}
			if label != "results" {
				fracSum += row[arm]
			}
		}
		if fracSum < 0.98 || fracSum > 1.02 {
			t.Fatalf("%s: fractions sum to %v", arm, fracSum)
		}
		if rows["results"][arm] == 0 {
			t.Fatalf("%s: no results observed", arm)
		}
	}
}

// fmtSscan parses a decimal byte count from a table cell.
func fmtSscan(s string, v *int64) (int, error) {
	x, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err
	}
	*v = x
	return 1, nil
}
