package experiments

import (
	"context"
	"fmt"
	"math/rand"
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

// AblationBroadcast quantifies the ASYNCbroadcaster design (§4.3): SAGA
// with versioned history broadcast versus the Spark-only full-table
// broadcast of Algorithm 3, same updates, same data. Reported: wall time
// and bytes of model state shipped.
func AblationBroadcast(o Options) (*metrics.Table, error) {
	o = o.withDefaults()
	cfg := dataset.RCV1Like(o.Scale, o.Seed)
	pr, err := getProblem(cfg)
	if err != nil {
		return nil, err
	}
	updates := o.SyncUpdates
	frac := fracSAGA(cfg.Name)
	tb := &metrics.Table{
		Title:   "ablation: ASYNCbroadcast vs full-table broadcast (SAGA, " + cfg.Name + ")",
		Columns: []string{"total_ms", "bytes_shipped", "final_err"},
	}

	// Spark-style: full history table with every broadcast.
	{
		eng, err := newAblationEngine(o)
		if err != nil {
			return nil, err
		}
		points, err := eng.Distribute(pr.d)
		if err != nil {
			eng.Close()
			return nil, err
		}
		res, bytes, err := opt.SAGAFullTableBroadcast(eng.RDD(), points, pr.d, opt.Params{
			Step: stepFor(AlgoSAGA, cfg, cdsWorkers), SampleFrac: frac,
			Updates: updates, SnapshotEvery: o.SnapshotEvery,
		}, pr.fstar)
		eng.Close()
		if err != nil {
			return nil, err
		}
		tb.Rows = append(tb.Rows, metrics.Row{
			Label: "full-table",
			Values: map[string]string{
				"total_ms":      fmt.Sprintf("%.1f", float64(res.Trace.Total.Microseconds())/1000.0),
				"bytes_shipped": fmt.Sprintf("%d", bytes),
				"final_err":     fmt.Sprintf("%.4g", res.Trace.FinalError()),
			},
		})
	}

	// ASYNC: versioned broadcast, value fetched at most once per worker.
	{
		eng, err := newAblationEngine(o)
		if err != nil {
			return nil, err
		}
		res, err := eng.Solve(context.Background(), "saga", pr.d, async.SolveOptions{
			Params: opt.Params{
				Step: stepFor(AlgoSAGA, cfg, cdsWorkers), SampleFrac: frac,
				Updates: updates, SnapshotEvery: o.SnapshotEvery,
			},
			FStar: pr.fstar,
		})
		bytes := eng.Cluster().FetchCount() * int64(pr.d.NumCols()) * 8
		eng.Close()
		if err != nil {
			return nil, err
		}
		tb.Rows = append(tb.Rows, metrics.Row{
			Label: "asyncbroadcast",
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
		rng := rand.New(rand.NewSource(seed))
		for _, pi := range parts {
			p, err := env.Partition(pi)
			if err != nil {
				return nil, 0, err
			}
			for local := 0; local < p.NumRows(); local++ {
				if rng.Float64() >= frac {
					continue
				}
				g := la.NewVec(len(w))
				loss.AddGrad(p.X.Row(local), p.Y[local], w, g)
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

// AblationBarrier compares barrier-control strategies for ASGD under a
// 100% controlled-delay straggler: ASP, SSP, and BSP (via the barrier
// predicate), reporting total time and final error at a fixed update
// budget.
func AblationBarrier(o Options) (*metrics.Table, error) {
	o = o.withDefaults()
	cfg := dataset.MNIST8MLike(o.Scale, o.Seed+1)
	delay := straggler.ControlledDelay{Worker: 0, Intensity: 1.0}
	updates := o.SyncUpdates * cdsWorkers
	barriers := []struct {
		name string
		f    core.BarrierFunc
	}{
		{"ASP", core.ASP()},
		{"SSP(s=64)", core.SSP(64)},
		{"BSP", core.BSP()},
	}
	tb := &metrics.Table{
		Title:   "ablation: barrier control under 100% straggler (ASGD, " + cfg.Name + ")",
		Columns: []string{"total_ms", "final_err", "mean_wait_ms"},
	}
	for _, b := range barriers {
		tr, err := run(o, cfg, RunSpec{
			Algo: AlgoASGD, Workers: cdsWorkers, Delay: delay,
			Frac: fracSGD(cfg.Name), Updates: updates, Barrier: b.f,
		})
		if err != nil {
			return nil, err
		}
		tb.Rows = append(tb.Rows, metrics.Row{
			Label: b.name,
			Values: map[string]string{
				"total_ms":     fmt.Sprintf("%.1f", float64(tr.Total.Microseconds())/1000.0),
				"final_err":    fmt.Sprintf("%.4g", tr.FinalError()),
				"mean_wait_ms": fmt.Sprintf("%.3f", float64(tr.MeanWait().Microseconds())/1000.0),
			},
		})
	}
	return tb, nil
}

// AblationStalenessLR measures the Listing 1 staleness-dependent learning
// rate under production-cluster stragglers: ASGD with and without the
// modulation, same update budget.
func AblationStalenessLR(o Options) (*metrics.Table, error) {
	o = o.withDefaults()
	cfg := dataset.EpsilonLike(o.Scale, o.Seed+2)
	model, err := straggler.NewProductionCluster(pcsWorkers, o.Seed+7)
	if err != nil {
		return nil, err
	}
	updates := o.SyncUpdates * pcsWorkers
	tb := &metrics.Table{
		Title:   "ablation: staleness-dependent learning rate (ASGD under PCS, " + cfg.Name + ")",
		Columns: []string{"total_ms", "final_err"},
	}
	for _, mod := range []bool{false, true} {
		tr, err := run(o, cfg, RunSpec{
			Algo: AlgoASGD, Workers: pcsWorkers, Delay: model,
			Frac: 0.05, Updates: updates, StalenessLR: mod,
		})
		if err != nil {
			return nil, err
		}
		label := "fixed-lr"
		if mod {
			label = "staleness-lr"
		}
		tb.Rows = append(tb.Rows, metrics.Row{
			Label: label,
			Values: map[string]string{
				"total_ms":  fmt.Sprintf("%.1f", float64(tr.Total.Microseconds())/1000.0),
				"final_err": fmt.Sprintf("%.4g", tr.FinalError()),
			},
		})
	}
	return tb, nil
}
