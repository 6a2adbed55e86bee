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
		Scale:         dataset.ScaleTiny,
		Seed:          5,
		MinTask:       500 * time.Microsecond,
		SyncUpdates:   20,
		SnapshotEvery: 4,
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

func TestCDSShape(t *testing.T) {
	// one dataset is enough for the shape test; restrict via a custom sweep
	o := tinyOpts()
	series, err := CDS(o, SGDPair)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3*4*2 {
		t.Fatalf("series = %d, want 24", len(series))
	}
	// Paper claim (Fig. 3/4): sync wait time grows with delay; async stays
	// flat. Compare delay=0 vs delay=1.0 for each dataset's sync runs.
	byLabel := map[string]*metrics.Trace{}
	for _, s := range series {
		byLabel[s.Label] = s.Trace
	}
	for _, ds := range []string{"rcv1-like", "mnist8m-like", "epsilon-like"} {
		sync0 := byLabel[ds+"/SGD-0.0"]
		sync1 := byLabel[ds+"/SGD-1.0"]
		async0 := byLabel[ds+"/ASGD-0.0"]
		async1 := byLabel[ds+"/ASGD-1.0"]
		if sync0 == nil || sync1 == nil || async0 == nil || async1 == nil {
			t.Fatalf("missing series for %s: %v", ds, byLabel)
		}
		if sync1.MeanWait() <= sync0.MeanWait() {
			t.Errorf("%s: sync wait did not grow with delay: %v vs %v", ds, sync0.MeanWait(), sync1.MeanWait())
		}
		// async wait under 100%% delay stays below sync wait under 100%% delay
		if async1.MeanWait() >= sync1.MeanWait() {
			t.Errorf("%s: async wait %v not below sync wait %v at delay 1.0", ds, async1.MeanWait(), sync1.MeanWait())
		}
		// sync total runtime grows materially with the straggler
		if sync1.Total <= sync0.Total {
			t.Errorf("%s: sync total did not grow with delay: %v vs %v", ds, sync0.Total, sync1.Total)
		}
	}
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
	tb, err := AblationBarrier(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	labels := map[string]bool{}
	for _, r := range tb.Rows {
		labels[r.Label] = true
	}
	for _, want := range []string{"ASP", "SSP(s=64)", "BSP"} {
		if !labels[want] {
			t.Fatalf("missing barrier %s", want)
		}
	}
}

func TestAblationStalenessLR(t *testing.T) {
	if testing.Short() {
		t.Skip("PCS spins 32 workers")
	}
	tb, err := AblationStalenessLR(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
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
