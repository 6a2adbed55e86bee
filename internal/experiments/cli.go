package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
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

func (p printer) table(tb interface{ Format() string }, err error) error {
	if err != nil {
		return err
	}
	fmt.Fprint(p.w, tb.Format())
	return nil
}

// experimentReg maps experiment ids to runners; experimentOrder preserves
// presentation order for IDs(). Experiments register here instead of
// occupying arms of a switch, mirroring the solver registry.
var (
	experimentOrder []string
	experimentReg   = map[string]func(o Options, p printer) error{}
)

func registerExperiment(id string, fn func(o Options, p printer) error) {
	if _, dup := experimentReg[id]; dup {
		panic("experiments: duplicate experiment id " + id)
	}
	experimentOrder = append(experimentOrder, id)
	experimentReg[id] = fn
}

// tableExperiment adapts a table harness to the registry signature.
func tableExperiment[T interface{ Format() string }](f func(Options) (T, error)) func(Options, printer) error {
	return func(o Options, p printer) error {
		tb, err := f(o)
		return p.table(tb, err)
	}
}

// cdsFigure adapts a controlled-delay-straggler sweep: the error curves
// plus speedups (fig 3/5), or the wait-time table (fig 4/6).
func cdsFigure(pair Pair, waitTitle string, curves bool) func(Options, printer) error {
	return func(o Options, p printer) error {
		series, err := CDS(o, pair)
		if err != nil {
			return err
		}
		if curves {
			p.series(series)
			fmt.Fprint(p.w, Speedups(series).Format())
		} else {
			fmt.Fprint(p.w, WaitTable(waitTitle, series).Format())
		}
		return nil
	}
}

// pcsFigure adapts a production-cluster-straggler sweep (fig 7/8).
func pcsFigure(pair Pair) func(Options, printer) error {
	return func(o Options, p printer) error {
		series, err := PCS(o, pair)
		if err != nil {
			return err
		}
		p.series(series)
		fmt.Fprint(p.w, Speedups(series).Format())
		return nil
	}
}

func init() {
	registerExperiment("table2", tableExperiment(Table2))
	registerExperiment("fig2", func(o Options, p printer) error {
		series, err := Fig2(o)
		if err != nil {
			return err
		}
		p.series(series)
		return nil
	})
	registerExperiment("fig3", cdsFigure(SGDPair, "", true))
	registerExperiment("fig4", cdsFigure(SGDPair, "Fig 4: average wait time per iteration (8 workers, SGD vs ASGD)", false))
	registerExperiment("fig5", cdsFigure(SAGAPair, "", true))
	registerExperiment("fig6", cdsFigure(SAGAPair, "Fig 6: average wait time per iteration (8 workers, SAGA vs ASAGA)", false))
	registerExperiment("fig7", pcsFigure(SGDPair))
	registerExperiment("fig8", pcsFigure(SAGAPair))
	registerExperiment("table3", tableExperiment(Table3))
	registerExperiment("ablation-broadcast", tableExperiment(AblationBroadcast))
	registerExperiment("ablation-localreduce", tableExperiment(AblationLocalReduce))
	registerExperiment("ablation-barrier", tableExperiment(AblationBarrier))
	registerExperiment("ablation-staleness", tableExperiment(AblationStalenessLR))
	registerExperiment("ext-sspsweep", tableExperiment(SSPSweep))
	registerExperiment("ext-staleness-dist", tableExperiment(StalenessDistribution))
}

// IDs lists every experiment id Run accepts, in presentation order.
func IDs() []string {
	return append([]string(nil), experimentOrder...)
}

// Run executes one experiment by id and writes its output (series and/or
// tables) to w; cmd/asyncbench is its command line and does nothing else.
// When o.CSVDir is set, figure series are additionally written there as CSV
// files.
func Run(o Options, id string, w io.Writer) error {
	fn, ok := experimentReg[strings.ToLower(id)]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	return fn(o, printer{o: o, w: w})
}
