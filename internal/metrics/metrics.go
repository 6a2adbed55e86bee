// Package metrics holds the measurement types the experiments report:
// convergence traces (suboptimality versus wall-clock time, the y/x axes of
// the paper's Figures 2, 3, 5, 7, 8), per-worker average wait time (Figures
// 4 and 6, Table 3), and speedup computation (time-to-target-error ratios).
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// TracePoint is one sample of a convergence curve.
type TracePoint struct {
	Time    time.Duration // wall-clock since the run started
	Updates int64         // model updates applied so far
	Error   float64       // objective suboptimality F(w) − F(w*)
}

// Trace is the full record of one optimization run.
type Trace struct {
	Algorithm string
	Dataset   string
	Workers   int
	Straggler string
	Points    []TracePoint
	// AvgWait is each worker's mean wait time between submitting a result
	// and receiving the next task.
	AvgWait map[int]time.Duration
	// Total wall-clock duration of the run.
	Total time.Duration
}

// FinalError returns the last recorded suboptimality.
func (t *Trace) FinalError() float64 {
	if len(t.Points) == 0 {
		return math.NaN()
	}
	return t.Points[len(t.Points)-1].Error
}

// TimeToError returns the first time at which the trace reaches target or
// below, and whether it ever did.
func (t *Trace) TimeToError(target float64) (time.Duration, bool) {
	for _, p := range t.Points {
		if p.Error <= target {
			return p.Time, true
		}
	}
	return 0, false
}

// MeanWait averages the per-worker wait times (the bar heights in Fig. 4/6;
// the cells of Table 3).
func (t *Trace) MeanWait() time.Duration {
	if len(t.AvgWait) == 0 {
		return 0
	}
	var sum time.Duration
	for _, w := range t.AvgWait {
		sum += w
	}
	return sum / time.Duration(len(t.AvgWait))
}

// Speedup compares two runs: how much faster "fast" reaches the target
// error than "slow". Returns 0 when either run never reaches the target.
func Speedup(slow, fast *Trace, target float64) float64 {
	ts, ok1 := slow.TimeToError(target)
	tf, ok2 := fast.TimeToError(target)
	if !ok1 || !ok2 || tf == 0 {
		return 0
	}
	return float64(ts) / float64(tf)
}

// SharedTarget picks an error target both traces reach: the weaker run's
// final error plus margin × (initial − weaker final), i.e. the point where
// the weaker run has made (1−margin) of its total progress. Expressing the
// slack as a fraction of achieved progress keeps the target meaningful both
// near convergence and in the early, barely-descended regime.
func SharedTarget(a, b *Trace, margin float64) float64 {
	fa, fb := a.FinalError(), b.FinalError()
	if math.IsNaN(fa) || math.IsNaN(fb) || len(a.Points) == 0 || len(b.Points) == 0 {
		return math.Inf(1)
	}
	initial := math.Max(a.Points[0].Error, b.Points[0].Error)
	worst := math.Max(fa, fb)
	if worst >= initial {
		return initial // no progress at all: any point qualifies
	}
	return worst + margin*(initial-worst)
}

// WaitSummary condenses the per-worker wait table (the data behind Figures
// 4 and 6) into the scalars a serving layer reports per job.
type WaitSummary struct {
	MeanMS  float64 `json:"mean_ms"`
	MaxMS   float64 `json:"max_ms"`
	Workers int     `json:"workers"`
}

// SummarizeWaits condenses a per-worker wait map (coordinator WaitTimes)
// into the scalar summary the serving layer reports.
func SummarizeWaits(waits map[int]time.Duration) WaitSummary {
	s := WaitSummary{Workers: len(waits)}
	if len(waits) == 0 {
		return s
	}
	var sum, max time.Duration
	for _, w := range waits {
		sum += w
		if w > max {
			max = w
		}
	}
	mean := sum / time.Duration(len(waits))
	s.MeanMS = float64(mean.Microseconds()) / 1000.0
	s.MaxMS = float64(max.Microseconds()) / 1000.0
	return s
}

// StalenessSummary condenses a staleness histogram (staleness value →
// occurrence count, the coordinator's per-run record) into the scalars a
// serving layer reports per job.
type StalenessSummary struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P95   int64   `json:"p95"`
	P99   int64   `json:"p99"`
	Max   int64   `json:"max"`
}

// SummarizeStaleness summarizes a staleness histogram. Percentiles are exact
// (the histogram is already the full distribution, not a sketch).
func SummarizeStaleness(hist map[int64]int64) StalenessSummary {
	var s StalenessSummary
	if len(hist) == 0 {
		return s
	}
	vals := make([]int64, 0, len(hist))
	var weighted float64
	for v, n := range hist {
		if n <= 0 {
			continue
		}
		vals = append(vals, v)
		s.Count += n
		weighted += float64(v) * float64(n)
		if v > s.Max {
			s.Max = v
		}
	}
	if s.Count == 0 {
		return StalenessSummary{}
	}
	s.Mean = weighted / float64(s.Count)
	sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
	pct := func(p float64) int64 {
		rank := int64(math.Ceil(p * float64(s.Count)))
		var cum int64
		for _, v := range vals {
			cum += hist[v]
			if cum >= rank {
				return v
			}
		}
		return vals[len(vals)-1]
	}
	s.P50, s.P95, s.P99 = pct(0.50), pct(0.95), pct(0.99)
	return s
}

// Format renders the trace as aligned rows "time_ms  updates  error",
// the series behind the paper's convergence figures.
func (t *Trace) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s on %s (%d workers, straggler=%s)\n", t.Algorithm, t.Dataset, t.Workers, t.Straggler)
	fmt.Fprintf(&sb, "%12s %10s %14s\n", "time_ms", "updates", "error")
	for _, p := range t.Points {
		fmt.Fprintf(&sb, "%12.2f %10d %14.6e\n", float64(p.Time.Microseconds())/1000.0, p.Updates, p.Error)
	}
	return sb.String()
}

// FormatWait renders the per-worker wait table sorted by worker id.
func (t *Trace) FormatWait() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# avg wait per task, %s on %s\n", t.Algorithm, t.Dataset)
	ids := make([]int, 0, len(t.AvgWait))
	for w := range t.AvgWait {
		ids = append(ids, w)
	}
	sort.Ints(ids)
	for _, w := range ids {
		fmt.Fprintf(&sb, "worker %3d  %10.3f ms\n", w, float64(t.AvgWait[w].Microseconds())/1000.0)
	}
	fmt.Fprintf(&sb, "mean        %10.3f ms\n", float64(t.MeanWait().Microseconds())/1000.0)
	return sb.String()
}

// WriteCSV emits the trace as CSV (time_ms, updates, error) with a header
// row, for external plotting.
func (t *Trace) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "time_ms,updates,error\n"); err != nil {
		return err
	}
	for _, p := range t.Points {
		if _, err := fmt.Fprintf(w, "%.3f,%d,%.9e\n",
			float64(p.Time.Microseconds())/1000.0, p.Updates, p.Error); err != nil {
			return err
		}
	}
	return nil
}

// Row is one line of a reproduced table (e.g. Table 3).
type Row struct {
	Label  string
	Values map[string]string
}

// Table renders rows with the given column order.
type Table struct {
	Title   string
	Columns []string
	Rows    []Row
}

// Format renders the table with aligned columns.
func (tb *Table) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s\n", tb.Title)
	fmt.Fprintf(&sb, "%-16s", "")
	for _, c := range tb.Columns {
		fmt.Fprintf(&sb, "%16s", c)
	}
	sb.WriteByte('\n')
	for _, r := range tb.Rows {
		fmt.Fprintf(&sb, "%-16s", r.Label)
		for _, c := range tb.Columns {
			fmt.Fprintf(&sb, "%16s", r.Values[c])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
