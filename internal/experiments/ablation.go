package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/async"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/la"
	"repro/internal/metrics"
	"repro/internal/opt"
	"repro/internal/straggler"
)

// newAblationEngine builds the straggler-free 8-worker engine the ablation
// harnesses share.
func newAblationEngine(o Options) (*async.Engine, error) {
	return async.New(
		async.WithWorkers(cdsWorkers),
		async.WithSeed(o.Seed),
		async.WithMinTaskTime(o.MinTask),
		async.WithPartitions(numPartitions),
	)
}

// AblationBroadcast quantifies the ASYNCbroadcaster design (§4.3) on SAGA,
// same updates, same data: full-table re-broadcasts the whole history table
// every round (Algorithm 3 on Spark); version-history reads each row's model
// version back (Table-1 ASYNCbroadcast + History); saga keeps one gradient
// coefficient per row (the registry's saga). Reported: wall time, bytes of
// model state shipped and final error.
func AblationBroadcast(o Options) (*metrics.Table, error) {
	o = o.withDefaults()
	cfg := dataset.RCV1Like(o.Scale, o.Seed)
	pr, err := getProblem(cfg)
	if err != nil {
		return nil, err
	}
	p := opt.Params{
		Step: stepFor(AlgoSAGA, cfg, cdsWorkers), SampleFrac: fracSAGA(cfg.Name),
		Updates: o.SyncUpdates, SnapshotEvery: snapshotEvery,
	}
	tb := &metrics.Table{
		Title:   "ablation: full-table broadcast vs ASYNCbroadcast with version or coefficient history (SAGA, " + cfg.Name + ")",
		Columns: []string{"total_ms", "bytes_shipped", "final_err"},
	}
	// the versioned arms ship a model value once per worker fetch
	fetched := func(eng *async.Engine) int64 { return eng.Cluster().FetchCount() * int64(pr.d.NumCols()) * 8 }
	arms := []struct {
		label string
		run   func(*async.Engine, *async.Data) (*opt.Result, int64, error)
	}{
		{"full-table", func(eng *async.Engine, points *async.Data) (*opt.Result, int64, error) {
			return opt.SAGAFullTableBroadcast(eng.RDD(), points, pr.d, p, pr.fstar)
		}},
		{"version-history", func(eng *async.Engine, _ *async.Data) (*opt.Result, int64, error) {
			res, err := opt.SAGAVersionHistory(eng.Context(), pr.d, p, pr.fstar)
			return res, fetched(eng), err
		}},
		{"saga", func(eng *async.Engine, _ *async.Data) (*opt.Result, int64, error) {
			res, err := eng.Solve(context.Background(), "saga", pr.d, async.SolveOptions{Params: p, FStar: pr.fstar})
			return res, fetched(eng), err
		}},
	}
	for _, arm := range arms {
		eng, err := newAblationEngine(o)
		if err != nil {
			return nil, err
		}
		points, err := eng.Distribute(pr.d)
		if err != nil {
			eng.Close()
			return nil, err
		}
		res, bytes, err := arm.run(eng, points)
		eng.Close()
		if err != nil {
			return nil, err
		}
		tb.Rows = append(tb.Rows, metrics.Row{
			Label: arm.label,
			Values: map[string]string{
				"total_ms":      fmt.Sprintf("%.1f", float64(res.Trace.Total.Microseconds())/1000.0),
				"bytes_shipped": fmt.Sprintf("%d", bytes),
				"final_err":     fmt.Sprintf("%.4g", res.Trace.FinalError()),
			},
		})
	}
	return tb, nil
}

// perSampleKernel is the Glint-style worker: no local reduction — every
// sampled row's gradient is shipped individually (as one slice, but the
// driver must apply them one by one, and the wire volume is per-sample).
func perSampleKernel(loss opt.Loss, wBr core.DynBroadcast, frac float64) core.Kernel {
	return func(env *cluster.Env, parts []int, seed int64) (any, int, error) {
		wv, err := wBr.Value(env)
		if err != nil {
			return nil, 0, err
		}
		w := wv.(la.Vec)
		var gs []la.Vec
		rows := cluster.NewRowSampler(seed, frac)
		for _, pi := range parts {
			p, err := env.Partition(pi)
			if err != nil {
				return nil, 0, err
			}
			nr := p.NumRows()
			for local := rows.Next(0, nr); local < nr; local = rows.Next(local+1, nr) {
				g, x := la.NewVec(len(w)), p.X.Row(local)
				x.AxpyDense(loss.GradCoeff(x.DotDense(w), p.Y[local]), g)
				gs = append(gs, g)
			}
		}
		if len(gs) == 0 {
			return nil, 0, nil
		}
		return gs, len(gs), nil
	}
}

// AblationLocalReduce compares ASYNC's per-worker local reduction against
// Glint-style per-sample submission (§7: "workers are not allowed to
// locally reduce their updates"): same sample budget, wall time and bytes.
func AblationLocalReduce(o Options) (*metrics.Table, error) {
	o = o.withDefaults()
	cfg := dataset.MNIST8MLike(o.Scale, o.Seed+1)
	pr, err := getProblem(cfg)
	if err != nil {
		return nil, err
	}
	frac := effFrac(o.Scale, fracSGD(cfg.Name))
	tasks := o.SyncUpdates * cdsWorkers
	tb := &metrics.Table{
		Title:   "ablation: local reduce vs per-sample submission (ASGD, " + cfg.Name + ")",
		Columns: []string{"total_ms", "bytes_shipped", "samples", "final_err"},
	}
	// Both sides process the same number of tasks; the difference is what
	// crosses the wire per task (one reduced vector vs one vector per
	// sample) and how much work the server does per task.
	loss := opt.LeastSquares{}
	step := stepFor(AlgoASGD, cfg, cdsWorkers)
	for _, mode := range []string{"local-reduce", "per-sample"} {
		eng, err := newAblationEngine(o)
		if err != nil {
			return nil, err
		}
		if _, err := eng.Distribute(pr.d); err != nil {
			eng.Close()
			return nil, err
		}
		ac := eng.Context()
		w := la.NewVec(pr.d.NumCols())
		collected := 0
		var samples, vecsShipped int64
		start := time.Now()
		for collected < tasks {
			wBr := ac.ASYNCbroadcast("abl.w", w.Clone())
			sel, err := ac.ASYNCbarrier(core.ASP(), nil)
			if err != nil {
				eng.Close()
				return nil, err
			}
			var kern core.Kernel
			if mode == "local-reduce" {
				kern = opt.GradKernel(loss, wBr, frac)
			} else {
				kern = perSampleKernel(loss, wBr, frac)
			}
			if _, err := ac.ASYNCreduce(sel, kern); err != nil {
				eng.Close()
				return nil, err
			}
			for first := true; (first || ac.HasNext()) && collected < tasks; first = false {
				res, err := ac.ASYNCcollectAll()
				if err != nil {
					break
				}
				alpha := step.Alpha(int64(collected))
				if mode == "local-reduce" {
					// payload may be dense or a sparse delta depending on
					// the dataset; AxpyPayload handles (and recycles) both
					if err := opt.AxpyPayload(-alpha/float64(res.Attrs.MiniBatch), res.Payload, w); err != nil {
						eng.Close()
						return nil, err
					}
					vecsShipped++
				} else {
					// Glint-style: the server applies every per-sample
					// gradient individually
					gs := res.Payload.([]la.Vec)
					for _, g := range gs {
						la.Axpy(-alpha/float64(len(gs)), g, w)
					}
					vecsShipped += int64(len(gs))
				}
				samples += int64(res.Attrs.MiniBatch)
				ac.AdvanceClock()
				collected++
			}
		}
		total := time.Since(start)
		finalErr := opt.Objective(pr.d, loss, w) - pr.fstar
		eng.Close()
		tb.Rows = append(tb.Rows, metrics.Row{
			Label: mode,
			Values: map[string]string{
				"total_ms":      fmt.Sprintf("%.1f", float64(total.Microseconds())/1000.0),
				"bytes_shipped": fmt.Sprintf("%d", vecsShipped*int64(pr.d.NumCols())*8),
				"samples":       fmt.Sprintf("%d", samples),
				"final_err":     fmt.Sprintf("%.4g", finalErr),
			},
		})
	}
	return tb, nil
}

// AblationBarrier sweeps barrier control for ASGD under a 100%
// controlled-delay straggler at a fixed update budget: BSP (s → 1), SSP at
// three staleness thresholds and ASP (s → ∞). Loose barriers run faster
// (hardware efficiency), tight ones see fresher gradients (statistical
// efficiency): the trade-off §3 describes.
func AblationBarrier(o Options) (*metrics.Table, error) {
	o = o.withDefaults()
	cfg := dataset.MNIST8MLike(o.Scale, o.Seed+1)
	delay := straggler.ControlledDelay{Worker: 0, Intensity: 1.0}
	updates := o.SyncUpdates * cdsWorkers
	barriers := []struct {
		name string
		f    core.BarrierFunc
	}{
		{"BSP", core.BSP()},
		{"SSP(4)", core.SSP(4)},
		{"SSP(16)", core.SSP(16)},
		{"SSP(64)", core.SSP(64)},
		{"ASP", core.ASP()},
	}
	tb := &metrics.Table{
		Title:   "ablation: barrier control under 100% straggler (ASGD, " + cfg.Name + ")",
		Columns: []string{"total_ms", "final_err", "mean_wait_ms", "max_staleness"},
	}
	for _, b := range barriers {
		tr, stats, err := run(o, cfg, RunSpec{
			Algo: AlgoASGD, Workers: cdsWorkers, Delay: delay,
			Frac: fracSGD(cfg.Name), Updates: updates, Barrier: b.f,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: barrier %s: %w", b.name, err)
		}
		tb.Rows = append(tb.Rows, metrics.Row{
			Label: b.name,
			Values: map[string]string{
				"total_ms":      fmt.Sprintf("%.1f", float64(tr.Total.Microseconds())/1000.0),
				"final_err":     fmt.Sprintf("%.4g", tr.FinalError()),
				"mean_wait_ms":  fmt.Sprintf("%.3f", float64(tr.MeanWait().Microseconds())/1000.0),
				"max_staleness": fmt.Sprintf("%d", stats.Staleness.Max),
			},
		})
	}
	return tb, nil
}

// stalenessBuckets are the rows of the staleness distribution: a result
// falls in the first bucket whose bound its staleness does not exceed.
var stalenessBuckets = []struct {
	label string
	max   int64
}{{"0", 0}, {"1-2", 2}, {"3-8", 8}, {"9-32", 32}, {"33-128", 128}, {">128", math.MaxInt64}}

// AblationStalenessLR measures the Listing 1 staleness-dependent learning
// rate under production-cluster stragglers: ASGD with and without the
// modulation, same update budget. It also returns the observed staleness
// distribution of both runs — the quantity staleness-aware methods ([72],
// Listing 1) key on, which ASYNC's bookkeeping makes observable — as the
// fraction of results per bucket and each run's result count.
func AblationStalenessLR(o Options) (arms, dist *metrics.Table, err error) {
	o = o.withDefaults()
	cfg := dataset.EpsilonLike(o.Scale, o.Seed+2)
	model, err := straggler.NewProductionCluster(pcsWorkers, o.Seed+7)
	if err != nil {
		return nil, nil, err
	}
	updates := o.SyncUpdates * pcsWorkers
	arms = &metrics.Table{
		Title:   "ablation: staleness-dependent learning rate (ASGD under PCS, " + cfg.Name + ")",
		Columns: []string{"total_ms", "final_err"},
	}
	dist = &metrics.Table{
		Title: "staleness distribution of the same runs (fraction of results per bucket, 32 workers)",
	}
	for _, b := range stalenessBuckets {
		dist.Rows = append(dist.Rows, metrics.Row{Label: "staleness " + b.label, Values: map[string]string{}})
	}
	dist.Rows = append(dist.Rows, metrics.Row{Label: "results", Values: map[string]string{}})
	for _, mod := range []bool{false, true} {
		tr, stats, err := run(o, cfg, RunSpec{
			Algo: AlgoASGD, Workers: pcsWorkers, Delay: model,
			Frac: 0.05, Updates: updates, StalenessLR: mod,
		})
		if err != nil {
			return nil, nil, err
		}
		label := "fixed-lr"
		if mod {
			label = "staleness-lr"
		}
		arms.Rows = append(arms.Rows, metrics.Row{
			Label: label,
			Values: map[string]string{
				"total_ms":  fmt.Sprintf("%.1f", float64(tr.Total.Microseconds())/1000.0),
				"final_err": fmt.Sprintf("%.4g", tr.FinalError()),
			},
		})
		counts := make([]int64, len(stalenessBuckets))
		var total int64
		for s, n := range stats.StalenessHist {
			i := 0
			for s > stalenessBuckets[i].max {
				i++
			}
			counts[i] += n
			total += n
		}
		dist.Columns = append(dist.Columns, label)
		for i, n := range counts {
			dist.Rows[i].Values[label] = fmt.Sprintf("%.3f", float64(n)/float64(total))
		}
		dist.Rows[len(counts)].Values[label] = fmt.Sprintf("%d", total)
	}
	return arms, dist, nil
}
