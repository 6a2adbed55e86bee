package opt

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/la"
)

// benchEnv builds a worker environment holding a split synthetic dataset
// and a cached model broadcast, the setup every kernel test reuses.
func benchEnv(t testing.TB, rows, cols, nParts int) (*cluster.Env, []int, la.Vec, *dataset.Dataset) {
	t.Helper()
	d, err := dataset.Generate(dataset.SynthConfig{
		Name: "alloc", Rows: rows, Cols: cols, NNZPerRow: 20, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := dataset.Split(d, nParts)
	if err != nil {
		t.Fatal(err)
	}
	env := cluster.NewEnv(0, 1, nil)
	idx := make([]int, 0, nParts)
	for _, p := range parts {
		if err := env.InstallPartition(p); err != nil {
			t.Fatal(err)
		}
		idx = append(idx, p.Index)
	}
	w := la.NewVec(cols)
	rng := rand.New(rand.NewSource(2))
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	env.Cache().Put("w", 1, w)
	return env, idx, w, d
}

// TestGradSweepAllocFree locks in the tentpole invariant: the steady-state
// mini-batch gradient inner loop performs zero allocations per sweep, for
// every loss on the hot path.
func TestGradSweepAllocFree(t *testing.T) {
	env, idx, w, _ := benchEnv(t, 500, 120, 1)
	p, err := env.Partition(idx[0])
	if err != nil {
		t.Fatal(err)
	}
	g := la.NewVec(len(w))
	rng := rand.New(rand.NewSource(3))
	for _, loss := range []Loss{LeastSquares{}, Logistic{}, Composite{Inner: LeastSquares{}, L2: 0.01}} {
		if allocs := testing.AllocsPerRun(50, func() {
			gradSweep(loss, p, rng, 0.3, w, g)
		}); allocs != 0 {
			t.Errorf("%s: gradSweep allocates %v per run, want 0", loss.Name(), allocs)
		}
	}
}

// TestGradKernelSteadyStateAllocs bounds the whole per-task path: with the
// scratch RNG, pooled accumulator, and fused kernels, the only remaining
// per-task allocation is boxing the result payload into `any`.
func TestGradKernelSteadyStateAllocs(t *testing.T) {
	env, idx, _, _ := benchEnv(t, 500, 120, 2)
	kern := GradKernel(LeastSquares{}, core.DynBroadcast{ID: "w", Version: 1}, 0.3)
	// warm the pool and the scratch RNG
	for i := 0; i < 3; i++ {
		v, _, err := kern(env, idx, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		la.PutVec(v.(la.Vec))
	}
	seed := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		v, _, err := kern(env, idx, seed)
		if err != nil {
			t.Fatal(err)
		}
		la.PutVec(v.(la.Vec))
		seed++
	})
	if allocs > 1 {
		t.Errorf("GradKernel steady state allocates %v per task, want ≤ 1 (payload boxing)", allocs)
	}
}

// TestGradKernelSeedReproducibility pins the reproducibility contract from
// the GradKernel doc: the same task seed draws the same sample set (and so
// the same gradient) no matter what ran on the worker's RNG before, and
// matches a freshly built environment exactly.
func TestGradKernelSeedReproducibility(t *testing.T) {
	run := func(env *cluster.Env, idx []int, seed int64) (la.Vec, int) {
		kern := GradKernel(LeastSquares{}, core.DynBroadcast{ID: "w", Version: 1}, 0.25)
		v, n, err := kern(env, idx, seed)
		if err != nil {
			t.Fatal(err)
		}
		if v == nil {
			t.Fatal("empty sample at frac 0.25 over 500 rows is vanishingly unlikely; check sampling")
		}
		g := v.(la.Vec).Clone()
		la.PutVec(v.(la.Vec))
		return g, n
	}
	env, idx, _, _ := benchEnv(t, 500, 60, 2)
	g1, n1 := run(env, idx, 7)
	// interleave other seeds so the worker RNG is mid-stream
	run(env, idx, 99)
	run(env, idx, 12345)
	g2, n2 := run(env, idx, 7)
	if n1 != n2 {
		t.Fatalf("same seed drew different sample counts: %d vs %d", n1, n2)
	}
	if !la.Equal(g1, g2, 0) {
		t.Fatal("same seed on a reused worker produced a different gradient")
	}
	// a completely fresh environment must agree bit-for-bit too
	envF, idxF, _, _ := benchEnv(t, 500, 60, 2)
	g3, n3 := run(envF, idxF, 7)
	if n1 != n3 || !la.Equal(g1, g3, 0) {
		t.Fatal("fresh worker disagrees with reused worker for the same seed")
	}
}

// TestSagaKernelRecyclesOnEmpty guards the pool discipline on the
// empty-sample path: a kernel returning no result must still hand its
// accumulators back (caught by leak, not crash — the test just exercises
// the path).
func TestSagaKernelRecyclesOnEmpty(t *testing.T) {
	env, idx, _, _ := benchEnv(t, 3, 20, 1)
	kern := SagaKernel(LeastSquares{}, core.DynBroadcast{ID: "w", Version: 1}, 1e-9)
	v, n, err := kern(env, idx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil || n != 0 {
		t.Fatalf("expected empty sample, got n=%d", n)
	}
}
