// bench_test.go holds the substrate micro-benchmarks: the sparse kernels,
// the worker broadcast cache, the gradient task and the in-process dispatch
// round trip, each measured alone. Run
//
//	go test -run '^$' -bench . -benchmem
//
// The paper's tables and figures are regenerated by go run ./cmd/asyncbench
// -exp <id>, and the performance gate is go run ./benchmark (see
// benchmark/README.md).
package repro

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/la"
	"repro/internal/opt"
)

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
