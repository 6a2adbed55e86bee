package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/metrics"
)

// WriteSeriesCSV writes each series as <dir>/<label>.csv ('/' → '_').
func WriteSeriesCSV(dir string, series []Series) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, s := range series {
		name := strings.ReplaceAll(s.Label, "/", "_") + ".csv"
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := s.Trace.WriteCSV(f); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// printer bundles the output sinks an experiment writes to.
type printer struct {
	o Options
	w io.Writer
}

func (p printer) series(series []Series) {
	for _, s := range series {
		fmt.Fprintf(p.w, "--- %s\n%s", s.Label, s.Trace.Format())
	}
	if p.o.CSVDir != "" {
		if err := WriteSeriesCSV(p.o.CSVDir, series); err != nil {
			fmt.Fprintf(p.w, "# csv export failed: %v\n", err)
		}
	}
}

func (p printer) tables(tbs ...*metrics.Table) {
	for _, tb := range tbs {
		fmt.Fprint(p.w, tb.Format())
	}
}

// sweep is one experiment: it runs its cells once and prints every paper
// view of them. ids[0] names the sweep; the rest name the views it prints
// besides its own, so asking for any of them runs the same sweep.
type sweep struct {
	ids []string
	run func(o Options, p printer) error
}

// lookup returns the sweep that answers to id, or nil.
func lookup(id string) *sweep {
	for i := range sweeps {
		for _, known := range sweeps[i].ids {
			if known == id {
				return &sweeps[i]
			}
		}
	}
	return nil
}

// tableSweep adapts a harness that returns one table.
func tableSweep(f func(Options) (*metrics.Table, error)) func(Options, printer) error {
	return func(o Options, p printer) error {
		tb, err := f(o)
		if err != nil {
			return err
		}
		p.tables(tb)
		return nil
	}
}

// cdsFigure adapts a controlled-delay-straggler sweep: the error curves and
// speed-ups (Fig. 3/5) and the wait-time table (Fig. 4/6) of the same runs.
func cdsFigure(pair Pair, waitTitle string) func(Options, printer) error {
	return func(o Options, p printer) error {
		series, err := CDS(o, pair)
		if err != nil {
			return err
		}
		p.series(series)
		p.tables(Speedups(series), WaitTable(waitTitle, series))
		return nil
	}
}

// pcsFigures runs the production-cluster-straggler sweep of both pairs and
// prints each pair's curves and speed-ups (Figs. 7 and 8) and the wait-time
// table of all four algorithms (Table 3).
func pcsFigures(o Options, p printer) error {
	var pairs [][]Series
	for _, pair := range []Pair{SGDPair, SAGAPair} {
		series, err := PCS(o, pair)
		if err != nil {
			return err
		}
		p.series(series)
		p.tables(Speedups(series))
		pairs = append(pairs, series)
	}
	p.tables(Table3From(pairs[0], pairs[1]))
	return nil
}

// sweeps holds the experiments in presentation order. Experiments are
// entries of this table instead of arms of a switch, mirroring the solver
// registry.
var sweeps = []sweep{
	{[]string{"table2"}, tableSweep(Table2)},
	{[]string{"fig2"}, func(o Options, p printer) error {
		series, err := Fig2(o)
		if err != nil {
			return err
		}
		p.series(series)
		return nil
	}},
	{[]string{"fig3", "fig4"}, cdsFigure(SGDPair, "Fig 4: average wait time per iteration (8 workers, SGD vs ASGD)")},
	{[]string{"fig5", "fig6"}, cdsFigure(SAGAPair, "Fig 6: average wait time per iteration (8 workers, SAGA vs ASAGA)")},
	{[]string{"fig7", "fig8", "table3"}, pcsFigures},
	{[]string{"ablation-broadcast"}, tableSweep(AblationBroadcast)},
	{[]string{"ablation-localreduce"}, tableSweep(AblationLocalReduce)},
	{[]string{"ablation-barrier", "ext-sspsweep"}, tableSweep(AblationBarrier)},
	{[]string{"ablation-staleness", "ext-staleness-dist"}, func(o Options, p printer) error {
		arms, dist, err := AblationStalenessLR(o)
		if err != nil {
			return err
		}
		p.tables(arms, dist)
		return nil
	}},
}

// IDs lists every sweep once, by its own id, in presentation order.
func IDs() []string {
	ids := make([]string, len(sweeps))
	for i, s := range sweeps {
		ids[i] = s.ids[0]
	}
	return ids
}

// Run executes the sweep that answers to id — its own id or one of the
// views it prints — and writes its output (series and/or tables) to w;
// cmd/asyncbench is its command line and does nothing else. When o.CSVDir
// is set, figure series are additionally written there as CSV files.
func Run(o Options, id string, w io.Writer) error {
	s := lookup(strings.ToLower(id))
	if s == nil {
		return fmt.Errorf("experiments: unknown experiment %q (known: %s)", id, strings.Join(artefactIDs(), ", "))
	}
	return s.run(o, printer{o: o, w: w})
}

// artefactIDs lists every id Run accepts.
func artefactIDs() []string {
	var ids []string
	for _, s := range sweeps {
		ids = append(ids, s.ids...)
	}
	return ids
}
