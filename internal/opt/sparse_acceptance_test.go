package opt

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/la"
)

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

// sparseTaskNs measures one GradKernel task on the sparse-wide environment,
// on whichever path the density threshold selects (see forceDense).
func sparseTaskNs(env *cluster.Env, idx []int) float64 {
	kern := GradKernel(LeastSquares{}, core.DynBroadcast{ID: "w", Version: 1}, 0.005)
	recycle := func(v any) {
		switch g := v.(type) {
		case la.Vec:
			la.PutVec(g)
		case *la.DeltaVec:
			la.PutDelta(g)
		}
	}
	res := testing.Benchmark(func(b *testing.B) {
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
	return float64(res.NsPerOp())
}

// sparseDelta produces one representative task payload from the sparse-wide
// kernel (caller owns it). The sampling fraction matches a small ASGD
// mini-batch (~30 samples, ~2k touched coordinates out of 200k).
func sparseDelta(env *cluster.Env, idx []int) (*la.DeltaVec, error) {
	kern := GradKernel(LeastSquares{}, core.DynBroadcast{ID: "w", Version: 1}, 0.01)
	v, n, err := kern(env, idx, 42)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("empty sparse sample")
	}
	d, ok := v.(*la.DeltaVec)
	if !ok {
		return nil, fmt.Errorf("sparse-wide kernel shipped %T", v)
	}
	return d, nil
}

// TestSparseDeltaAcceptance pins the headline claims of the sparse-delta
// data path on the sparse-wide shape: per-task kernel time, driver-side
// ns/update, and wire bytes/task each improve at least 5× over the dense
// path. The true ratios are orders of magnitude (nnz/d ≈ 3e-4), so the 5×
// floor holds with plenty of margin on noisy CI machines.
func TestSparseDeltaAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark comparison")
	}
	env, idx, cols, err := sparseWideEnv()
	if err != nil {
		t.Fatal(err)
	}

	// Task time: both paths share the O(rows) Bernoulli sampling sweep, so
	// the per-task ratio is bounded by it — require the sparse path to win,
	// not by a fixed factor (the ≥5× criteria below are on the terms the
	// sparse path actually removes: the O(d) driver update and wire bytes).
	sparseNs := sparseTaskNs(env, idx)
	delta, err := sparseDelta(env, idx)
	if err != nil {
		t.Fatal(err)
	}
	defer la.PutDelta(delta)
	forceDense(t) // every kernel call from here on takes the old dense path
	denseNs := sparseTaskNs(env, idx)
	if sparseNs > denseNs {
		t.Errorf("task time: sparse %.0fns vs dense %.0fns — sparse path must not be slower", sparseNs, denseNs)
	}

	w := la.NewVec(cols)
	sparseUpd := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			delta.AxpyDense(-1e-9, w)
		}
	}).NsPerOp()
	dense := densify(delta.N, delta)
	denseUpd := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			la.Axpy(-1e-9, dense, w)
		}
	}).NsPerOp()
	if denseUpd < 5*sparseUpd {
		t.Errorf("ns/update: sparse %d vs dense %d — want ≥ 5× win", sparseUpd, denseUpd)
	}

	mk := func(payload any) cluster.Message {
		return cluster.Message{Kind: cluster.KindTaskResult, Result: &cluster.Result{
			TaskID: 1, Payload: core.ReducePayload{Val: payload, N: 300},
		}}
	}
	sparseFrame, _, err := cluster.EncodeFrame(mk(delta), true)
	if err != nil {
		t.Fatal(err)
	}
	denseFrame, _, err := cluster.EncodeFrame(mk(dense), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(denseFrame) < 5*len(sparseFrame) {
		t.Errorf("bytes/task: sparse %dB vs dense %dB — want ≥ 5× win", len(sparseFrame), len(denseFrame))
	}
}
