package opt

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/la"
)

// sparseCfg is the sparse dataset the path-equivalence tests run on: wide
// enough (and its nnz small enough) that tasks at the tests' sampling
// fractions pass both halves of the sparse gate.
func sparseCfg() dataset.SynthConfig {
	return dataset.SynthConfig{
		Name: "sparse-eq", Rows: 300, Cols: 40_000, NNZPerRow: 8, Noise: 0.1, Seed: 23,
	}
}

// newSparseRig assembles an in-process engine over an arbitrary synthetic
// dataset (the shared newRig fixture is dense by construction).
func newSparseRig(t *testing.T, workers, parts int, cfg dataset.SynthConfig) (*core.Context, *dataset.Dataset) {
	t.Helper()
	r := newRigOn(t, local, workers, parts, nil, cfg)
	return r.ac, r.d
}

// forceDense pins the density threshold to 0 (every task takes the dense
// path) and restores it on cleanup.
func forceDense(t *testing.T) {
	t.Helper()
	old := sparseDensityThreshold
	sparseDensityThreshold = 0
	t.Cleanup(func() { sparseDensityThreshold = old })
}

// runASGD executes one deterministic single-worker in-process ASGD run.
func runASGD(t *testing.T, p Params) la.Vec {
	t.Helper()
	return runASGDOn(t, local, p)
}

// runASGDOn is runASGD with the worker reached over tr.
func runASGDOn(t *testing.T, tr transport, p Params) la.Vec {
	t.Helper()
	r := newRigOn(t, tr, 1, 2, nil, sparseCfg())
	res, err := ASGD(r.ac, r.d, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res.W
}

// TestSparsePathMatchesDenseASGD is the core identity guarantee of the
// sparse-delta path: on a fixed seed, the sparse O(nnz) pipeline and the
// dense O(d) pipeline produce bitwise-identical models (the sparse sweep
// consumes the RNG identically and mirrors the dense arithmetic operation
// for operation).
func TestSparsePathMatchesDenseASGD(t *testing.T) {
	p := Params{Step: InvSqrt{A: 0.1}, SampleFrac: 0.3, Updates: 150, SnapshotEvery: 50}
	wSparse := runASGD(t, p)
	// the sparse deltas cross a real wire unchanged
	if wTCP := runASGDOn(t, loopback, p); !la.Equal(wSparse, wTCP, 0) {
		t.Fatal("sparse ASGD over TCP diverged from the in-process run")
	}
	wDense := func() la.Vec {
		forceDense(t)
		return runASGD(t, p)
	}()
	if !la.Equal(wSparse, wDense, 0) {
		t.Fatal("sparse and dense ASGD paths diverged on a fixed seed")
	}
}

// TestSparsePathMatchesDenseRidge checks the lazy-L2 contract: deferred
// per-coordinate shrinkage settles to the same model the eager dense path
// computes (to rounding — the deferred factors telescope into products).
func TestSparsePathMatchesDenseRidge(t *testing.T) {
	p := Params{
		Loss: Composite{Inner: LeastSquares{}, L2: 0.05},
		Step: InvSqrt{A: 0.1}, SampleFrac: 0.3, Updates: 150, SnapshotEvery: 50,
	}
	wSparse := runASGD(t, p)
	wDense := func() la.Vec {
		forceDense(t)
		return runASGD(t, p)
	}()
	if !la.Equal(wSparse, wDense, 1e-9) {
		t.Fatal("lazy-L2 sparse path diverged from the eager dense path")
	}
	// the penalty must actually have acted: compare against the plain run
	plain := runASGD(t, Params{Step: InvSqrt{A: 0.1}, SampleFrac: 0.3, Updates: 150, SnapshotEvery: 50})
	if la.Norm2(wSparse) >= la.Norm2(plain) {
		t.Fatalf("ridge run (‖w‖=%v) not smaller than plain (‖w‖=%v)", la.Norm2(wSparse), la.Norm2(plain))
	}
}

// TestSparsePathMatchesDenseASAGA checks the lazy avgHist drift of the
// sparse SAGA driver against the eager dense update.
func TestSparsePathMatchesDenseASAGA(t *testing.T) {
	p := Params{Step: Constant{A: 0.02}, SampleFrac: 0.25, Updates: 120, SnapshotEvery: 40}
	run := func(tr transport) la.Vec {
		r := newRigOn(t, tr, 1, 2, nil, sparseCfg())
		res, err := ASAGA(r.ac, r.d, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.W
	}
	wSparse := run(local)
	// the sparse partials cross a real wire unchanged
	if wTCP := run(loopback); !la.Equal(wSparse, wTCP, 0) {
		t.Fatal("sparse ASAGA over TCP diverged from the in-process run")
	}
	forceDense(t)
	wDense := run(local)
	if !la.Equal(wSparse, wDense, 1e-9) {
		t.Fatal("sparse and dense ASAGA paths diverged on a fixed seed")
	}
}

// TestSparsePathMatchesDenseEpochVR checks the lazy μ drift of the sparse
// variance-reduced inner loop.
func TestSparsePathMatchesDenseEpochVR(t *testing.T) {
	p := Params{Step: Constant{A: 0.05}, SampleFrac: 0.3, Updates: 1, SnapshotEvery: 40}
	c := VRConfig{Epochs: 3, UpdatesPerEpoch: 40}
	run := func() la.Vec {
		ac, d := newSparseRig(t, 1, 2, sparseCfg())
		res, err := EpochVR(ac, d, p, c, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.W
	}
	wSparse := run()
	forceDense(t)
	wDense := run()
	if !la.Equal(wSparse, wDense, 1e-9) {
		t.Fatal("sparse and dense EpochVR paths diverged on a fixed seed")
	}
}

// sparseKernelEnv is a single-worker environment over a sparse dataset with
// a cached model broadcast.
func sparseKernelEnv(t testing.TB) (*cluster.Env, []int, int) {
	t.Helper()
	d, err := dataset.Generate(dataset.SynthConfig{
		Name: "sparse-kernel", Rows: 400, Cols: 50_000, NNZPerRow: 8, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := dataset.Split(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	env := cluster.NewEnv(0, 1, nil)
	idx := make([]int, 0, len(parts))
	for _, p := range parts {
		if err := env.InstallPartition(p); err != nil {
			t.Fatal(err)
		}
		idx = append(idx, p.Index)
	}
	env.Cache().Put("w", 1, la.NewVec(d.NumCols()))
	return env, idx, d.NumCols()
}

// TestSparseKernelPayloadTypes pins which payload each kernel ships per
// loss and density — the contract the drivers dispatch on.
func TestSparseKernelPayloadTypes(t *testing.T) {
	env, idx, _ := sparseKernelEnv(t)
	br := core.DynBroadcast{ID: "w", Version: 1}
	collect := func(k core.Kernel) any {
		v, n, err := k(env, idx, 9)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatal("empty sample")
		}
		return v
	}
	if v := collect(GradKernel(LeastSquares{}, br, 0.25)); v != nil {
		d, ok := v.(*la.DeltaVec)
		if !ok {
			t.Fatalf("sparse GradKernel shipped %T, want *la.DeltaVec", v)
		}
		la.PutDelta(d)
	}
	if v := collect(GradKernel(Composite{Inner: LeastSquares{}, L2: 0.1}, br, 0.25)); v != nil {
		d, ok := v.(*la.DeltaVec)
		if !ok {
			t.Fatalf("sparse ridge GradKernel shipped %T, want *la.DeltaVec (λ is driver-side)", v)
		}
		la.PutDelta(d)
	}
	if v := collect(SagaKernel(Logistic{}, br, 0.25)); v != nil {
		d, ok := v.(*la.DeltaVec)
		if !ok {
			t.Fatalf("sparse SagaKernel shipped %T, want *la.DeltaVec", v)
		}
		la.PutDelta(d)
	}
	// lazy SAGA shrinkage is unsupported: ridge SAGA stays dense
	if v := collect(SagaKernel(Composite{Inner: LeastSquares{}, L2: 0.1}, br, 0.25)); v != nil {
		g, ok := v.(la.Vec)
		if !ok {
			t.Fatalf("ridge SagaKernel shipped %T, want la.Vec", v)
		}
		la.PutVec(g)
	}
	if v := collect(VRKernel(LeastSquares{}, br, br, 0.25)); v != nil {
		d, ok := v.(*la.DeltaVec)
		if !ok {
			t.Fatalf("sparse VRKernel shipped %T, want *la.DeltaVec", v)
		}
		la.PutDelta(d)
	}
	// dense fallback: pin the threshold to 0 and the same kernels ship
	// dense vectors again
	forceDense(t)
	if v := collect(GradKernel(LeastSquares{}, br, 0.25)); v != nil {
		g, ok := v.(la.Vec)
		if !ok {
			t.Fatalf("dense-forced GradKernel shipped %T, want la.Vec", v)
		}
		la.PutVec(g)
	}
}

// TestSparseGradKernelZeroAlloc pins the sparse inner loop at zero steady-
// state allocations — stronger than the dense path's single payload-boxing
// allocation, since a pooled *la.DeltaVec boxes without allocating.
func TestSparseGradKernelZeroAlloc(t *testing.T) {
	env, idx, _ := sparseKernelEnv(t)
	kern := GradKernel(LeastSquares{}, core.DynBroadcast{ID: "w", Version: 1}, 0.3)
	seed := int64(0)
	work := func() {
		v, n, err := kern(env, idx, seed)
		if err != nil {
			t.Fatal(err)
		}
		if n > 0 {
			la.PutDelta(v.(*la.DeltaVec))
		}
		seed++
	}
	for i := 0; i < 5; i++ {
		work() // warm the accumulator and pool
	}
	if allocs := testing.AllocsPerRun(100, work); allocs != 0 {
		t.Errorf("sparse GradKernel steady state allocates %v per task, want 0", allocs)
	}
}

// TestSparseSagaKernelZeroAlloc does the same for the historical-gradient
// kernel (history table reads and writes included): it ships a pooled
// *la.DeltaVec too, so it allocates nothing. The seed changes every task:
// the history table is sized once per partition, so rows sampled for the
// first time cost no allocation either.
func TestSparseSagaKernelZeroAlloc(t *testing.T) {
	env, idx, _ := sparseKernelEnv(t)
	kern := SagaKernel(LeastSquares{}, core.DynBroadcast{ID: "w", Version: 1}, 0.3)
	seed := int64(0)
	work := func() {
		v, n, err := kern(env, idx, seed)
		if err != nil {
			t.Fatal(err)
		}
		if n > 0 {
			la.PutDelta(v.(*la.DeltaVec))
		}
		seed++
	}
	for i := 0; i < 5; i++ {
		work()
	}
	if allocs := testing.AllocsPerRun(100, work); allocs != 0 {
		t.Errorf("sparse SagaKernel steady state allocates %v per task, want 0", allocs)
	}
}

// TestSparseConvergesOverTCP drives the whole stack — sparse kernels, op
// args and delta payloads through the wire codec, lazy driver updates —
// across real sockets with three workers interleaving.
func TestSparseConvergesOverTCP(t *testing.T) {
	for name, tc := range map[string]struct {
		seed  int64
		solve func(*rig) (*Result, error)
	}{
		"asgd": {12, func(r *rig) (*Result, error) {
			return ASGD(r.ac, r.d, Params{
				Step: Scaled{Base: InvSqrt{A: 0.6}, Factor: 3}, SampleFrac: 0.2,
				Updates: 600, SnapshotEvery: 200,
			}, r.fstar)
		}},
		"asaga": {13, func(r *rig) (*Result, error) {
			return ASAGA(r.ac, r.d, Params{
				Step: Constant{A: 0.1 / 3}, SampleFrac: 0.2,
				Updates: 600, SnapshotEvery: 200,
			}, r.fstar)
		}},
	} {
		t.Run(name, func(t *testing.T) {
			r := newRigOn(t, loopback, 3, 6, nil, dataset.SynthConfig{
				Name: "tcp-sparse", Rows: 400, Cols: 30_000, NNZPerRow: 8, Noise: 0.05, Seed: tc.seed,
			})
			res, err := tc.solve(r)
			if err != nil {
				t.Fatal(err)
			}
			// a wide near-interpolating system converges slowly along its
			// 400-dim row space; the test is about the sparse wire path,
			// not the rate
			r.assertConverged(t, res, 2)
		})
	}
}
