package experiments

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/straggler"
)

// cdsWorkers and pcsWorkers match the paper's cluster sizes.
const (
	cdsWorkers = 8
	pcsWorkers = 32
)

// cdsDelays are the controlled delay intensities of §6.3.
var cdsDelays = []float64{0, 0.3, 0.6, 1.0}

// Table2 reports the datasets (shape, sparsity, size) like the paper's
// Table 2, at the configured scale.
func Table2(o Options) (*metrics.Table, error) {
	o = o.withDefaults()
	tb := &metrics.Table{
		Title:   "Table 2: datasets (synthetic analogues)",
		Columns: []string{"rows", "cols", "nnz", "density", "sizeMB"},
	}
	for _, cfg := range dataset.Table2(o.Scale, o.Seed) {
		d, err := dataset.Generate(cfg)
		if err != nil {
			return nil, err
		}
		s := d.Stats()
		tb.Rows = append(tb.Rows, metrics.Row{
			Label: s.Name,
			Values: map[string]string{
				"rows":    fmt.Sprintf("%d", s.Rows),
				"cols":    fmt.Sprintf("%d", s.Cols),
				"nnz":     fmt.Sprintf("%d", s.NNZ),
				"density": fmt.Sprintf("%.4f", s.Density),
				"sizeMB":  fmt.Sprintf("%.2f", s.SizeMB),
			},
		})
	}
	return tb, nil
}

// Fig2 compares synchronous SGD implemented through ASYNC against the
// Mllib-style baseline on all three datasets (8 workers, no stragglers):
// the curves should coincide.
func Fig2(o Options) ([]Series, error) {
	o = o.withDefaults()
	var out []Series
	for _, cfg := range dataset.Table2(o.Scale, o.Seed) {
		frac := fracSGD(cfg.Name)
		for _, algo := range []Algo{AlgoMllibSGD, AlgoSGD} {
			tr, err := run(o, cfg, RunSpec{
				Algo: algo, Workers: cdsWorkers, Frac: frac, Updates: o.SyncUpdates,
			})
			if err != nil {
				return nil, err
			}
			out = append(out, Series{Label: fmt.Sprintf("%s/%s", cfg.Name, algo), Trace: tr})
		}
	}
	return out, nil
}

// CDS runs the controlled-delay-straggler sweep for one algorithm pair on 8
// workers: each dataset × delay intensity × {sync, async}. It is the data
// behind Figs. 3 and 4 (SGDPair) and Figs. 5 and 6 (SAGAPair).
func CDS(o Options, pair Pair) ([]Series, error) {
	o = o.withDefaults()
	var out []Series
	for _, cfg := range dataset.Table2(o.Scale, o.Seed) {
		frac := pair.Frac(cfg.Name)
		for _, delay := range cdsDelays {
			var model straggler.Model = straggler.None{}
			if delay > 0 {
				model = straggler.ControlledDelay{Worker: 0, Intensity: delay}
			}
			syncTr, err := run(o, cfg, RunSpec{
				Algo: pair.Sync, Workers: cdsWorkers, Delay: model,
				Frac: frac, Updates: o.SyncUpdates,
			})
			if err != nil {
				return nil, err
			}
			asyncTr, err := run(o, cfg, RunSpec{
				Algo: pair.Async, Workers: cdsWorkers, Delay: model,
				Frac: frac, Updates: o.SyncUpdates * cdsWorkers,
			})
			if err != nil {
				return nil, err
			}
			out = append(out,
				Series{Label: fmt.Sprintf("%s/%s-%.1f", cfg.Name, pair.Sync, delay), Trace: syncTr},
				Series{Label: fmt.Sprintf("%s/%s-%.1f", cfg.Name, pair.Async, delay), Trace: asyncTr},
			)
		}
	}
	return out, nil
}

// WaitTable condenses a CDS/PCS series list into the average-wait-time view
// of Figs. 4 and 6 (one row per series, mean worker wait in ms).
func WaitTable(title string, series []Series) *metrics.Table {
	tb := &metrics.Table{Title: title, Columns: []string{"avg_wait_ms", "total_ms"}}
	for _, s := range series {
		tb.Rows = append(tb.Rows, metrics.Row{
			Label: s.Label,
			Values: map[string]string{
				"avg_wait_ms": fmt.Sprintf("%.3f", float64(s.Trace.MeanWait().Microseconds())/1000.0),
				"total_ms":    fmt.Sprintf("%.1f", float64(s.Trace.Total.Microseconds())/1000.0),
			},
		})
	}
	return tb
}

// PCS runs the production-cluster-straggler experiment for one pair on 32
// workers with the two larger datasets (mnist8m-like, epsilon-like) and the
// paper's 1% sampling rate — the data behind Figs. 7 and 8 and Table 3.
func PCS(o Options, pair Pair) ([]Series, error) {
	o = o.withDefaults()
	model, err := straggler.NewProductionCluster(pcsWorkers, o.Seed+7)
	if err != nil {
		return nil, err
	}
	var out []Series
	cfgs := dataset.Table2(o.Scale, o.Seed)
	for _, cfg := range []dataset.SynthConfig{cfgs[1], cfgs[2]} { // mnist8m-like, epsilon-like
		// paper: b = 1% for the PCS experiments; at reduced scale keep the
		// expected per-task batch non-trivial (run() additionally applies
		// the effFrac scale multiplier)
		frac := 0.01
		if o.Scale != dataset.ScaleFull {
			frac = 0.05
		}
		syncTr, err := run(o, cfg, RunSpec{
			Algo: pair.Sync, Workers: pcsWorkers, Delay: model,
			Frac: frac, Updates: o.SyncUpdates,
		})
		if err != nil {
			return nil, err
		}
		asyncTr, err := run(o, cfg, RunSpec{
			Algo: pair.Async, Workers: pcsWorkers, Delay: model,
			Frac: frac, Updates: o.SyncUpdates * pcsWorkers,
		})
		if err != nil {
			return nil, err
		}
		out = append(out,
			Series{Label: fmt.Sprintf("%s/%s-pcs", cfg.Name, pair.Sync), Trace: syncTr},
			Series{Label: fmt.Sprintf("%s/%s-pcs", cfg.Name, pair.Async), Trace: asyncTr},
		)
	}
	return out, nil
}

// Table3 reproduces the 32-worker average-wait-time table from PCS runs of
// both pairs.
func Table3(o Options) (*metrics.Table, error) {
	sgd, err := PCS(o, SGDPair)
	if err != nil {
		return nil, err
	}
	saga, err := PCS(o, SAGAPair)
	if err != nil {
		return nil, err
	}
	return Table3From(sgd, saga), nil
}

// Table3From builds Table 3 from already-computed PCS series.
func Table3From(sgdSeries, sagaSeries []Series) *metrics.Table {
	tb := &metrics.Table{
		Title:   "Table 3: average wait time per iteration on 32 workers (ms)",
		Columns: []string{"SAGA", "ASAGA", "SGD", "ASGD"},
	}
	byDataset := map[string]map[string]string{}
	fill := func(series []Series) {
		for _, s := range series {
			ds := s.Trace.Dataset
			if byDataset[ds] == nil {
				byDataset[ds] = map[string]string{}
			}
			byDataset[ds][s.Trace.Algorithm] = fmt.Sprintf("%.4f", float64(s.Trace.MeanWait().Microseconds())/1000.0)
		}
	}
	fill(sgdSeries)
	fill(sagaSeries)
	for _, ds := range []string{"mnist8m-like", "epsilon-like"} {
		if vals, ok := byDataset[ds]; ok {
			tb.Rows = append(tb.Rows, metrics.Row{Label: ds, Values: vals})
		}
	}
	return tb
}

// Speedups summarizes sync-vs-async time-to-target ratios for a series list
// produced by CDS or PCS (consecutive sync/async entries are paired).
func Speedups(series []Series) *metrics.Table {
	tb := &metrics.Table{
		Title:   "speedup: sync time-to-target / async time-to-target",
		Columns: []string{"speedup", "target_err"},
	}
	for i := 0; i+1 < len(series); i += 2 {
		sync, async := series[i], series[i+1]
		target := metrics.SharedTarget(sync.Trace, async.Trace, 0.25)
		sp := metrics.Speedup(sync.Trace, async.Trace, target)
		tb.Rows = append(tb.Rows, metrics.Row{
			Label: async.Label,
			Values: map[string]string{
				"speedup":    fmt.Sprintf("%.2fx", sp),
				"target_err": fmt.Sprintf("%.3g", target),
			},
		})
	}
	return tb
}
