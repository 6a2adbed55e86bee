package bench

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/la"
	"repro/internal/opt"
)

// Sparse-delta data-path metrics on the sparse-wide shape: per-task kernel
// cost on the O(nnz) path vs the dense-forced path, driver-side
// ns/update, wire bytes/task of the sparse frame vs its dense equivalent,
// and codec encode throughput. These are the entries the 15%
// regression gate watches for the sparse pipeline.

// sparseWideEnv builds a single-worker environment holding the sparse-wide
// dataset at small scale (3000×200k, 64 nnz/row, density 3.2e-4), split 4
// ways, with the model broadcast cached.
func sparseWideEnv() (*cluster.Env, []int, int, error) {
	d, err := dataset.Generate(dataset.SparseWide(dataset.ScaleSmall, 1))
	if err != nil {
		return nil, nil, 0, err
	}
	parts, err := dataset.Split(d, 4)
	if err != nil {
		return nil, nil, 0, err
	}
	env := cluster.NewEnv(0, 1, nil)
	idx := make([]int, 0, len(parts))
	for _, p := range parts {
		if err := env.InstallPartition(p); err != nil {
			return nil, nil, 0, err
		}
		idx = append(idx, p.Index)
	}
	env.Cache().Put("w", 1, la.NewVec(d.NumCols()))
	return env, idx, d.NumCols(), nil
}

// sparseTaskNs measures one GradKernel task on the sparse-wide environment;
// forceDense pins the density threshold to 0 first (the old dense path).
func sparseTaskNs(env *cluster.Env, idx []int, forceDense bool) (nsPerTask, allocsPerTask float64) {
	old := opt.SparseDensityThreshold
	if forceDense {
		opt.SparseDensityThreshold = 0
	}
	defer func() { opt.SparseDensityThreshold = old }()
	kern := opt.GradKernel(opt.LeastSquares{}, core.DynBroadcast{ID: "w", Version: 1}, 0.005)
	recycle := func(v any) {
		switch g := v.(type) {
		case la.Vec:
			la.PutVec(g)
		case *la.DeltaVec:
			la.PutDelta(g)
		}
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v, n, err := kern(env, idx, int64(i))
			if err != nil {
				b.Fatal(err)
			}
			if n > 0 {
				recycle(v)
			}
		}
	})
	return float64(res.NsPerOp()), float64(res.AllocsPerOp())
}

// sparseDelta produces one representative task payload from the sparse-wide
// kernel (caller owns it). The sampling fraction matches a small ASGD
// mini-batch (~30 samples, ~2k touched coordinates out of 200k).
func sparseDelta(env *cluster.Env, idx []int) (*la.DeltaVec, error) {
	kern := opt.GradKernel(opt.LeastSquares{}, core.DynBroadcast{ID: "w", Version: 1}, 0.01)
	v, n, err := kern(env, idx, 42)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("bench: empty sparse sample")
	}
	d, ok := v.(*la.DeltaVec)
	if !ok {
		return nil, fmt.Errorf("bench: sparse-wide kernel shipped %T", v)
	}
	return d, nil
}

func sparseMetrics(log func(Entry)) error {
	env, idx, cols, err := sparseWideEnv()
	if err != nil {
		return err
	}

	ns, allocs := sparseTaskNs(env, idx, false)
	log(Entry{Name: "grad.sparse_ns_per_task", Value: ns, Unit: "ns/op", Better: LowerIsBetter,
		Note: "O(nnz) GradKernel task, sparse-wide small (200k cols, 64 nnz/row), frac 0.005"})
	log(Entry{Name: "grad.sparse_allocs_per_task", Value: allocs, Unit: "allocs/op", Better: LowerIsBetter,
		Note: "sparse task path is fully pooled: payload boxing included"})

	delta, err := sparseDelta(env, idx)
	if err != nil {
		return err
	}
	defer la.PutDelta(delta)

	// driver-side ns/update: sparse scatter vs the dense Axpy it replaces
	w := la.NewVec(cols)
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			delta.AxpyDense(-1e-9, w)
		}
	})
	log(Entry{Name: "update.sparse_ns", Value: float64(res.NsPerOp()), Unit: "ns/update", Better: LowerIsBetter,
		Note: fmt.Sprintf("apply one sparse delta (%d nnz) to a %dk-dim model", delta.NNZ(), cols/1000)})
	dense := delta.Dense()
	res = testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			la.Axpy(-1e-9, dense, w)
		}
	})
	log(Entry{Name: "update.dense_ns", Value: float64(res.NsPerOp()), Unit: "ns/update", Better: LowerIsBetter,
		Note: "the dense O(d) Axpy the sparse path replaces"})

	// wire bytes/task: the sparse frame vs the dense frame of the same
	// gradient, both in the one wire format
	mkResult := func(payload any) cluster.Message {
		return cluster.Message{Kind: cluster.KindTaskResult, Result: &cluster.Result{
			TaskID: 1, Worker: 0, Op: "opt.grad",
			Payload: core.ReducePayload{Val: payload, N: 300},
		}}
	}
	sparseFrame, _, err := cluster.EncodeFrame(mkResult(delta), true)
	if err != nil {
		return err
	}
	denseFrame, _, err := cluster.EncodeFrame(mkResult(dense), true)
	if err != nil {
		return err
	}
	log(Entry{Name: "wire.bytes_per_task", Value: float64(len(sparseFrame)), Unit: "B", Better: LowerIsBetter,
		Note: "frame of one sparse task result"})
	log(Entry{Name: "wire.bytes_per_task_dense", Value: float64(len(denseFrame)), Unit: "B", Better: LowerIsBetter,
		Note: "frame of the dense equivalent (what the sparse path saves)"})

	// codec encode throughput on a dense model payload (the fetch/push path)
	payload := la.NewVec(cols)
	for i := range payload {
		payload[i] = float64(i%13) - 6
	}
	push := cluster.Message{Kind: cluster.KindBroadcastPush, Push: &cluster.BroadcastPush{ID: "w", Version: 1, Value: payload}}
	var bytesPerOp int
	res = testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			frame, _, err := cluster.EncodeFrame(push, true)
			if err != nil {
				b.Fatal(err)
			}
			bytesPerOp = len(frame)
		}
	})
	log(Entry{Name: "codec.encode_mbps", Value: float64(bytesPerOp) / float64(res.NsPerOp()) * 1e3, Unit: "MB/s", Better: HigherIsBetter,
		Note: fmt.Sprintf("binary-encode a %dk-dim dense broadcast push", cols/1000)})
	return nil
}
