// bench_test.go regenerates every table and figure of the paper's
// evaluation as Go benchmarks, one per artifact, plus ablation and
// substrate micro-benchmarks. Reported custom metrics carry the headline
// quantities (speedups, wait times, byte ratios); run
//
//	go test -bench=. -benchmem
//
// Benchmarks run at ScaleTiny so the whole suite finishes in minutes; the
// same harnesses run bigger as go run ./cmd/asyncbench -exp <id> -scale
// small|full. These are figure regenerators, not the performance gate: that
// is go run ./benchmark (see benchmark/README.md).
package repro

import (
	"math/rand"
	"strconv"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/la"
	"repro/internal/metrics"
	"repro/internal/opt"
)

func benchOpts() experiments.Options {
	return experiments.Options{
		Scale:         dataset.ScaleTiny,
		Seed:          42,
		MinTask:       time.Millisecond,
		SyncUpdates:   15,
		SnapshotEvery: 5,
	}
}

// meanWaitMS extracts a series' mean wait in milliseconds.
func meanWaitMS(s experiments.Series) float64 {
	return float64(s.Trace.MeanWait().Microseconds()) / 1000.0
}

// meanSpeedup averages the sync/async speedups of a paired series list.
func meanSpeedup(series []experiments.Series) float64 {
	var sum float64
	var n int
	for i := 0; i+1 < len(series); i += 2 {
		target := metrics.SharedTarget(series[i].Trace, series[i+1].Trace, 0.25)
		if sp := metrics.Speedup(series[i].Trace, series[i+1].Trace, target); sp > 0 {
			sum += sp
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// BenchmarkTable2_Datasets regenerates the dataset summary (Table 2).
func BenchmarkTable2_Datasets(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2_SyncSGDvsBaseline regenerates Figure 2: SGD-in-ASYNC versus
// the Mllib-style baseline. The reported metric is the final-error ratio —
// ≈1 is the paper's claim.
func BenchmarkFig2_SyncSGDvsBaseline(b *testing.B) {
	o := benchOpts()
	var ratio float64
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig2(o)
		if err != nil {
			b.Fatal(err)
		}
		ratio = 0
		for j := 0; j+1 < len(series); j += 2 {
			ratio += series[j].Trace.FinalError() / series[j+1].Trace.FinalError()
		}
		ratio /= float64(len(series) / 2)
	}
	b.ReportMetric(ratio, "final-err-ratio")
}

// BenchmarkFig3_CDS_SGD regenerates Figure 3: SGD vs ASGD under controlled
// delays on 8 workers. Metric: mean async-over-sync speedup.
func BenchmarkFig3_CDS_SGD(b *testing.B) {
	o := benchOpts()
	var sp float64
	for i := 0; i < b.N; i++ {
		series, err := experiments.CDS(o, experiments.SGDPair)
		if err != nil {
			b.Fatal(err)
		}
		sp = meanSpeedup(series)
	}
	b.ReportMetric(sp, "speedup")
}

// BenchmarkFig4_WaitTimeSGD regenerates Figure 4: per-worker average wait
// time under controlled delays. Metrics: sync and async wait at 100% delay.
func BenchmarkFig4_WaitTimeSGD(b *testing.B) {
	o := benchOpts()
	var syncW, asyncW float64
	for i := 0; i < b.N; i++ {
		series, err := experiments.CDS(o, experiments.SGDPair)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range series {
			switch s.Label {
			case "mnist8m-like/SGD-1.0":
				syncW = meanWaitMS(s)
			case "mnist8m-like/ASGD-1.0":
				asyncW = meanWaitMS(s)
			}
		}
	}
	b.ReportMetric(syncW, "sync-wait-ms")
	b.ReportMetric(asyncW, "async-wait-ms")
}

// BenchmarkFig5_CDS_SAGA regenerates Figure 5: SAGA vs ASAGA under
// controlled delays.
func BenchmarkFig5_CDS_SAGA(b *testing.B) {
	o := benchOpts()
	var sp float64
	for i := 0; i < b.N; i++ {
		series, err := experiments.CDS(o, experiments.SAGAPair)
		if err != nil {
			b.Fatal(err)
		}
		sp = meanSpeedup(series)
	}
	b.ReportMetric(sp, "speedup")
}

// BenchmarkFig6_WaitTimeSAGA regenerates Figure 6: SAGA/ASAGA wait times.
func BenchmarkFig6_WaitTimeSAGA(b *testing.B) {
	o := benchOpts()
	var syncW, asyncW float64
	for i := 0; i < b.N; i++ {
		series, err := experiments.CDS(o, experiments.SAGAPair)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range series {
			switch s.Label {
			case "mnist8m-like/SAGA-1.0":
				syncW = meanWaitMS(s)
			case "mnist8m-like/ASAGA-1.0":
				asyncW = meanWaitMS(s)
			}
		}
	}
	b.ReportMetric(syncW, "sync-wait-ms")
	b.ReportMetric(asyncW, "async-wait-ms")
}

// BenchmarkFig7_PCS_SGD regenerates Figure 7: SGD vs ASGD on 32 workers
// with production-cluster stragglers (paper: 3–4× speedup).
func BenchmarkFig7_PCS_SGD(b *testing.B) {
	o := benchOpts()
	var sp float64
	for i := 0; i < b.N; i++ {
		series, err := experiments.PCS(o, experiments.SGDPair)
		if err != nil {
			b.Fatal(err)
		}
		sp = meanSpeedup(series)
	}
	b.ReportMetric(sp, "speedup")
}

// BenchmarkFig8_PCS_SAGA regenerates Figure 8: SAGA vs ASAGA on 32 workers
// with production-cluster stragglers (paper: 3.5–4×).
func BenchmarkFig8_PCS_SAGA(b *testing.B) {
	o := benchOpts()
	var sp float64
	for i := 0; i < b.N; i++ {
		series, err := experiments.PCS(o, experiments.SAGAPair)
		if err != nil {
			b.Fatal(err)
		}
		sp = meanSpeedup(series)
	}
	b.ReportMetric(sp, "speedup")
}

// BenchmarkTable3_WaitTime32 regenerates Table 3: average wait per
// iteration on 32 workers for all four algorithms. Metric: the
// sync-over-async wait ratio for SGD on mnist8m-like (paper: ≈1.8×).
func BenchmarkTable3_WaitTime32(b *testing.B) {
	o := benchOpts()
	var ratio float64
	for i := 0; i < b.N; i++ {
		series, err := experiments.PCS(o, experiments.SGDPair)
		if err != nil {
			b.Fatal(err)
		}
		var syncW, asyncW float64
		for _, s := range series {
			switch s.Label {
			case "mnist8m-like/SGD-pcs":
				syncW = meanWaitMS(s)
			case "mnist8m-like/ASGD-pcs":
				asyncW = meanWaitMS(s)
			}
		}
		if asyncW > 0 {
			ratio = syncW / asyncW
		}
	}
	b.ReportMetric(ratio, "wait-ratio")
}

// BenchmarkAblationBroadcast measures the ASYNCbroadcaster against the
// full-table broadcast of Algorithm 3. Metric: byte blow-up of the
// Spark-only path over the registry's saga.
func BenchmarkAblationBroadcast(b *testing.B) {
	o := benchOpts()
	var blowup float64
	for i := 0; i < b.N; i++ {
		tb, err := experiments.AblationBroadcast(o)
		if err != nil {
			b.Fatal(err)
		}
		var full, async float64
		for _, r := range tb.Rows {
			v, err := strconv.ParseFloat(r.Values["bytes_shipped"], 64)
			if err != nil {
				b.Fatal(err)
			}
			switch r.Label {
			case "full-table":
				full = v
			case "saga":
				async = v
			}
		}
		if async > 0 {
			blowup = full / async
		}
	}
	b.ReportMetric(blowup, "bytes-blowup")
}

// BenchmarkAblationLocalReduce measures per-worker local reduction against
// Glint-style per-sample submission.
func BenchmarkAblationLocalReduce(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationLocalReduce(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBarrier sweeps barrier strategies under a 100% straggler.
func BenchmarkAblationBarrier(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationBarrier(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationStalenessLR measures Listing 1's learning-rate
// modulation under production stragglers.
func BenchmarkAblationStalenessLR(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationStalenessLR(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtSSPSweep sweeps SSP thresholds under a 100% straggler.
func BenchmarkExtSSPSweep(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SSPSweep(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtStalenessDistribution measures the observed staleness
// histogram under PCS on 32 workers.
func BenchmarkExtStalenessDistribution(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.StalenessDistribution(o); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkCSRMatVec measures the sparse kernel at the heart of every
// gradient computation.
func BenchmarkCSRMatVec(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const rows, cols = 2000, 500
	m := la.NewCSR(rows, cols, rows*25)
	for i := 0; i < rows; i++ {
		entries := map[int32]float64{}
		for k := 0; k < 25; k++ {
			entries[int32(rng.Intn(cols))] = rng.NormFloat64()
		}
		if err := m.AppendRow(la.SparseFromMap(cols, entries)); err != nil {
			b.Fatal(err)
		}
	}
	x := la.NewVec(cols)
	y := la.NewVec(rows)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MatVec(x, y)
	}
	b.SetBytes(int64(m.NNZ() * 12))
}

// BenchmarkBroadcastCache measures the worker-side versioned cache holding
// 64 retained versions (a SAGA-style history).
func BenchmarkBroadcastCache(b *testing.B) {
	c := cluster.NewBroadcastCache()
	v := la.NewVec(256)
	for ver := int64(0); ver < 64; ver++ {
		c.Put("w", ver, v)
		c.Retain("w", ver)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get("w", int64(i%64)); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkGradKernelLocal measures the mini-batch gradient kernel on a
// local environment (no cluster round trip).
func BenchmarkGradKernelLocal(b *testing.B) {
	d, err := dataset.Generate(dataset.SynthConfig{
		Name: "bench", Rows: 4000, Cols: 200, NNZPerRow: 40, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	parts, err := dataset.Split(d, 4)
	if err != nil {
		b.Fatal(err)
	}
	env := cluster.NewEnv(0, 1, nil)
	for _, p := range parts {
		if err := env.InstallPartition(p); err != nil {
			b.Fatal(err)
		}
	}
	w := la.NewVec(d.NumCols())
	env.Cache().Put("w", 1, w)
	kern := opt.GradKernel(opt.LeastSquares{}, core.DynBroadcast{ID: "w", Version: 1}, 0.1)
	partIdx := []int{0, 1, 2, 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, n, err := kern(env, partIdx, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if n > 0 {
			// recycle like the driver does after applying the update, so the
			// benchmark sees the steady-state (pooled) compute path
			la.PutVec(v.(la.Vec))
		}
	}
}

// BenchmarkGradKernelSample measures one mini-batch gradient task at
// wire_asgd's shape: two 5 000-row partitions of a 10 000-column set with 32
// nonzeros a row, sampled at frac 0.0008 (about 8 rows a task). At this
// fraction the row draw, not the arithmetic, is most of a task.
func BenchmarkGradKernelSample(b *testing.B) {
	d, err := dataset.Generate(dataset.SynthConfig{
		Name: "tall-sparse", Rows: 10_000, Cols: 10_000, NNZPerRow: 32, Noise: 0.3, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	parts, err := dataset.Split(d, 2)
	if err != nil {
		b.Fatal(err)
	}
	env := cluster.NewEnv(0, 1, nil)
	for _, p := range parts {
		if err := env.InstallPartition(p); err != nil {
			b.Fatal(err)
		}
	}
	env.Cache().Put("w", 1, la.NewVec(d.NumCols()))
	kern := opt.GradKernel(opt.LeastSquares{}, core.DynBroadcast{ID: "w", Version: 1}, 0.0008)
	partIdx := []int{0, 1}
	samples := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, n, err := kern(env, partIdx, int64(i)*1_000_003)
		if err != nil {
			b.Fatal(err)
		}
		samples += n
		if v, ok := v.(*la.DeltaVec); ok {
			la.PutDelta(v)
		}
	}
	b.ReportMetric(float64(samples)/float64(b.N), "rows/op")
}

// BenchmarkGradInnerLoop measures just the mini-batch gradient inner loop —
// the paper's per-task arithmetic with every coordination layer stripped
// away. ns/gradient (reported as ns/sample) is the number the CI regression
// gate watches; allocs/op must stay 0.
func BenchmarkGradInnerLoop(b *testing.B) {
	d, err := dataset.Generate(dataset.SynthConfig{
		Name: "bench", Rows: 4000, Cols: 200, NNZPerRow: 40, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	parts, err := dataset.Split(d, 1)
	if err != nil {
		b.Fatal(err)
	}
	env := cluster.NewEnv(0, 1, nil)
	if err := env.InstallPartition(parts[0]); err != nil {
		b.Fatal(err)
	}
	w := la.NewVec(d.NumCols())
	env.Cache().Put("w", 1, w)
	kern := opt.GradKernel(opt.LeastSquares{}, core.DynBroadcast{ID: "w", Version: 1}, 1.0)
	partIdx := []int{0}
	samples := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, n, err := kern(env, partIdx, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		samples += n
		la.PutVec(v.(la.Vec))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(samples), "ns/sample")
}

// BenchmarkSparseGradAccum measures the fused sparse scatter kernel alone.
func BenchmarkSparseGradAccum(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const cols, nnz = 4096, 64
	idx := make([]int32, 0, nnz)
	for j := int32(0); int(j) < cols && len(idx) < nnz; j += int32(cols / nnz) {
		idx = append(idx, j)
	}
	val := make([]float64, len(idx))
	for k := range val {
		val[k] = rng.NormFloat64()
	}
	g := la.NewVec(cols)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		la.GradAccum(0.5, idx, val, g)
	}
	b.SetBytes(int64(len(idx) * 12))
}

// BenchmarkClusterRoundTrip measures the raw dispatch→execute→collect path
// of the in-process transport.
func BenchmarkClusterRoundTrip(b *testing.B) {
	c, err := cluster.NewLocal(cluster.Config{NumWorkers: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Shutdown()
	router := c.Router()
	ch := make(chan *cluster.Result, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := &cluster.Task{ID: c.NextTaskID()}
		t.SetFunc(func(env *cluster.Env, tk *cluster.Task) (any, error) { return nil, nil })
		router.Route(t.ID, ch)
		if err := c.Submit(0, t); err != nil {
			b.Fatal(err)
		}
		<-ch
	}
}
