package bench

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/la"
	"repro/internal/la/maxip"
	"repro/internal/metrics"
	"repro/internal/opt"
	"repro/internal/rdd"
)

// Greedy-selection metrics: per-round cost of the maintained MaxIP index
// against the exact O(d) scan it replaces at the 1M-dimension sparse-wide
// shape, the quickselect top-k compressor, and rounds-to-tolerance of
// greedy vs cyclic coordinate descent on the concentrated-signal design
// greedy selection exists for.

// selectWide generates the full-scale sparse-wide matrix (20k×1M, 100
// nnz/row — ~860k distinct stored columns) and its column view.
func selectWide() (*la.CSR, *la.ColView, error) {
	d, err := dataset.Generate(dataset.SparseWide(dataset.ScaleFull, 1))
	if err != nil {
		return nil, nil, err
	}
	return d.X, la.NewColView(d.X), nil
}

// extractionNs measures one top-16 selection against an up-to-date index.
// exactBelow < 0 runs the tournament tree (O(k·log d)), a huge value
// forces the exact full scan (O(d)). Incremental query maintenance is
// deliberately excluded: both backends pay the bitwise-identical dirty-
// column re-scoring (see maintenanceNs), so extraction is the entire
// differential between them.
func extractionNs(x *la.CSR, cv *la.ColView, exactBelow int) float64 {
	ix := maxip.New(x, cv, nil, maxip.Options{ExactBelow: exactBelow})
	rng := rand.New(rand.NewSource(7))
	u := la.NewVec(x.NumRows)
	for i := range u {
		u[i] = rng.NormFloat64()
	}
	ix.Rebuild(u)
	var out []int32
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out = ix.TopK(16, out[:0])
		}
	})
	return float64(res.NsPerOp())
}

// maintenanceNs measures the per-round incremental maintenance both
// backends share: a 32-row query update (a mini-batch worth of changed
// residuals) flushed through the dirty-row → dirty-column re-scoring.
func maintenanceNs(x *la.CSR, cv *la.ColView) float64 {
	ix := maxip.New(x, cv, nil, maxip.Options{})
	rng := rand.New(rand.NewSource(7))
	batch := make([]int32, 32)
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for t := range batch {
				batch[t] = int32(rng.Intn(x.NumRows))
			}
			for _, r := range batch {
				ix.SetRow(r, float64(i%17)-8)
			}
			ix.Flush()
		}
	})
	return float64(res.NsPerOp())
}

// benchIllCond is the concentrated-signal regression design greedy
// selection is built for: `heavy` strong columns at the end of the index
// range carry all the label signal and are row-disjoint (each row stores
// exactly one heavy entry — no intra-block coupling), while a long weak
// tail carries only noise. A cyclic cursor burns most of a pass before
// touching signal; greedy jumps straight to it.
func benchIllCond(rows, cols, heavy int, seed int64) (*dataset.Dataset, error) {
	rng := rand.New(rand.NewSource(seed))
	const tailPerRow = 5
	m := la.NewCSR(rows, cols, rows*(tailPerRow+1))
	hbase := cols - heavy
	w := la.NewVec(cols)
	for j := 0; j < heavy; j++ {
		w[hbase+j] = 1 + float64(j%3)
	}
	for i := 0; i < rows; i++ {
		seen := map[int32]bool{}
		idx := make([]int32, 0, tailPerRow+1)
		for len(idx) < tailPerRow {
			j := int32(rng.Intn(hbase))
			if !seen[j] {
				seen[j] = true
				idx = append(idx, j)
			}
		}
		idx = append(idx, int32(hbase+i%heavy))
		for a := 1; a < len(idx); a++ { // tail draws are unsorted; insertion-fix
			for b := a; b > 0 && idx[b] < idx[b-1]; b-- {
				idx[b], idx[b-1] = idx[b-1], idx[b]
			}
		}
		val := make([]float64, len(idx))
		for k, j := range idx {
			if int(j) >= hbase {
				val[k] = 10
			} else {
				val[k] = 0.3 * rng.NormFloat64()
			}
		}
		if err := m.AppendRow(la.SparseVec{Idx: idx, Val: val, N: cols}); err != nil {
			return nil, err
		}
	}
	y := la.NewVec(rows)
	m.MatVec(w, y)
	for i := range y {
		y[i] += 0.01 * rng.NormFloat64()
	}
	return &dataset.Dataset{Name: "ill-cond", X: m, Y: y}, nil
}

// roundsToTol returns the first round at which the trace error drops to
// tol, or the full budget when it never does.
func roundsToTol(tr *metrics.Trace, tol float64, budget int) float64 {
	for _, p := range tr.Points {
		if p.Error <= tol {
			return float64(p.Updates)
		}
	}
	return float64(budget)
}

// greedyRounds runs greedy and cyclic CD on the concentrated-signal design
// and reports each mode's rounds to 1e-4 relative suboptimality.
func greedyRounds() (greedy, cyclic float64, err error) {
	d, err := benchIllCond(400, 768, 16, 47)
	if err != nil {
		return 0, 0, err
	}
	c, err := cluster.NewLocal(cluster.Config{NumWorkers: 2, Seed: 1})
	if err != nil {
		return 0, 0, err
	}
	defer c.Shutdown()
	rctx := rdd.NewContext(c)
	if _, err := rctx.Distribute(d, 4); err != nil {
		return 0, 0, err
	}
	ac := core.New(rctx)
	defer ac.Close()

	loss := opt.Composite{Inner: opt.LeastSquares{}, L2: 0.001}
	run := func(mode string, rounds, snap int, fstar float64) (*opt.Result, error) {
		p := opt.CDParams{BlockSize: 16, Mode: mode, DampStep: 1}
		p.Loss = loss
		p.Updates = rounds
		p.SnapshotEvery = snap
		return opt.CD(ac, d, p, fstar)
	}
	// reference optimum: a long greedy run to convergence (cyclic is still
	// descending after 600 rounds here — its first pass dumps spurious
	// weight on the noise tail, then repairs it one block per round)
	ref, err := run("greedy", 600, 600, 0)
	if err != nil {
		return 0, 0, err
	}
	fstar := opt.Objective(d, loss, ref.W)
	tol := 1e-4 * math.Max(1, math.Abs(fstar))

	const budget = 400
	rg, err := run("greedy", budget, 1, fstar)
	if err != nil {
		return 0, 0, err
	}
	rc, err := run("cyclic", budget, 1, fstar)
	if err != nil {
		return 0, 0, err
	}
	return roundsToTol(rg.Trace, tol, budget), roundsToTol(rc.Trace, tol, budget), nil
}

func selectMetrics(log func(Entry)) error {
	x, cv, err := selectWide()
	if err != nil {
		return err
	}
	cols := len(cv.Cols)

	maxipNs := extractionNs(x, cv, -1)
	log(Entry{Name: "select.maxip_ns", Value: maxipNs, Unit: "ns/op", Better: LowerIsBetter,
		Note: fmt.Sprintf("top-16 extraction via tournament tree, sparse-wide full (%dk stored cols)", cols/1000)})
	scanNs := extractionNs(x, cv, 1<<30)
	log(Entry{Name: "select.scan_ns", Value: scanNs, Unit: "ns/op", Better: LowerIsBetter,
		Note: "the exact O(d) scan the tree replaces (maintenance is identical either way)"})
	log(Entry{Name: "select.update_ns", Value: maintenanceNs(x, cv), Unit: "ns/op", Better: LowerIsBetter,
		Note: "shared incremental maintenance: 32-row query update flushed through dirty-column re-scoring"})

	// top-k gradient compression: quickselect over a dense 131k-dim gradient
	g := la.NewVec(1 << 17)
	rng := rand.New(rand.NewSource(11))
	for i := range g {
		g[i] = rng.NormFloat64()
	}
	k := len(g) / 100
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			opt.TopK(g, k)
		}
	})
	log(Entry{Name: "select.topk_ns", Value: float64(res.NsPerOp()), Unit: "ns/op", Better: LowerIsBetter,
		Note: fmt.Sprintf("top-%d of a dense %dk-dim gradient, quickselect + index restore", k, len(g)/1000)})

	gr, cy, err := greedyRounds()
	if err != nil {
		return err
	}
	log(Entry{Name: "cd.greedy_rounds_to_tol", Value: gr, Unit: "rounds", Better: LowerIsBetter,
		Note: "greedy (Gauss-Southwell via MaxIP) CD rounds to 1e-4 rel. suboptimality, concentrated-signal 400×768"})
	log(Entry{Name: "cd.cyclic_rounds_to_tol", Value: cy, Unit: "rounds", Better: LowerIsBetter,
		Note: "cyclic-order CD on the same design and budget"})
	return nil
}
