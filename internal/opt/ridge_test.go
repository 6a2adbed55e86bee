package opt

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/la"
)

// ridgePartial computes one loss-only partial with GradKernel at the worker
// model wTask, on data sparse enough for the sparse path: the same sampled
// rows once as a *la.DeltaVec and once, with the sparse gate closed, as a
// dense la.Vec.
func ridgePartial(t *testing.T, loss Loss, wTask la.Vec, seed int64) (*la.DeltaVec, la.Vec, int) {
	t.Helper()
	d, err := dataset.Generate(dataset.SynthConfig{Name: "ridge-stale", Rows: 200, Cols: len(wTask), NNZPerRow: 5, Noise: 0.1, Seed: 31})
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
	env.Cache().Put("w", 1, wTask)
	kern := GradKernel(loss, core.DynBroadcast{ID: "w", Version: 1}, 0.1)
	run := func() (any, int) {
		v, n, err := kern(env, idx, seed)
		if err != nil || n == 0 {
			t.Fatalf("partial: %d rows, err %v", n, err)
		}
		return v, n
	}
	sv, n := run()
	sparse, ok := sv.(*la.DeltaVec)
	if !ok {
		t.Fatalf("sparse-gated partial is %T", sv)
	}
	old := sparseDensityThreshold
	sparseDensityThreshold = 0
	defer func() { sparseDensityThreshold = old }()
	dv, _ := run()
	dense, ok := dv.(la.Vec)
	if !ok {
		t.Fatalf("dense-forced partial is %T", dv)
	}
	return sparse.Clone(), dense.Clone(), n
}

// staleModels returns a worker model and a different driver model.
func staleModels(cols int) (wTask, wDriver la.Vec) {
	rng := rand.New(rand.NewSource(32))
	wTask, wDriver = la.NewVec(cols), la.NewVec(cols)
	for j := range wTask {
		wTask[j] = rng.NormFloat64()
		wDriver[j] = wTask[j] + 0.5*rng.NormFloat64()
	}
	return wTask, wDriver
}

// TestRidgeUnderStalenessApplier: a partial computed at a stale worker model
// lands on the same driver model whether it ships dense or sparse — the
// ridge term is taken at the driver's model either way, eagerly for the
// dense payload and lazily for the sparse one.
func TestRidgeUnderStalenessApplier(t *testing.T) {
	const cols, alpha = 4000, 0.1
	for _, tc := range []struct {
		name string
		loss Loss
	}{
		{"ridge", Composite{Inner: LeastSquares{}, L2: 0.05}},
		{"elastic-net", Composite{Inner: LeastSquares{}, L2: 0.05, L1: 0.01}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wTask, wDriver := staleModels(cols)
			sparse, dense, n := ridgePartial(t, tc.loss, wTask, 5)
			p := Params{Loss: tc.loss}
			land := func(payload any) la.Vec {
				w := wDriver.Clone()
				a := newProxApplier(&p)
				if err := a.apply(w, payload, alpha, n); err != nil {
					t.Fatal(err)
				}
				a.settle(w)
				return w
			}
			if wd, ws := land(dense), land(sparse); !la.Equal(wd, ws, 1e-12) {
				t.Fatal("a stale dense partial and its sparse twin landed on different models")
			}
		})
	}
}

// TestRidgeUnderStalenessSyncSGD: a BSP round of stale partials takes the
// ridge term once, at the driver's model, whatever mix of payload types the
// round holds.
func TestRidgeUnderStalenessSyncSGD(t *testing.T) {
	const cols, alpha = 4000, 0.1
	loss := Composite{Inner: LeastSquares{}, L2: 0.05, L1: 0.01}
	wTask, wDriver := staleModels(cols)
	s1, d1, n1 := ridgePartial(t, loss, wTask, 5)
	s2, d2, n2 := ridgePartial(t, loss, wTask, 6)
	round := func(a, b any) la.Vec {
		p := Params{Loss: loss}
		u := &syncSGDUpdater{w: wDriver.Clone(), ap: newProxApplier(&p), acc: newRoundAccum(cols)}
		if err := u.Apply(a, &core.Attrs{MiniBatch: n1}, alpha); err != nil {
			t.Fatal(err)
		}
		if err := u.Apply(b, &core.Attrs{MiniBatch: n2}, alpha); err != nil {
			t.Fatal(err)
		}
		if ok, err := u.FlushRound(alpha); !ok || err != nil {
			t.Fatalf("flush: %v, %v", ok, err)
		}
		return u.w
	}
	want := round(s1.Clone(), s2.Clone())
	if got := round(d1.Clone(), d2.Clone()); !la.Equal(got, want, 1e-12) {
		t.Fatal("an all-dense round of stale partials took the ridge term elsewhere than an all-sparse one")
	}
	if got := round(d1.Clone(), s2.Clone()); !la.Equal(got, want, 1e-12) {
		t.Fatal("a mixed round of stale partials took the ridge term elsewhere than an all-sparse one")
	}
}
