package opt

import (
	"context"
	"strings"
	"testing"

	"repro/internal/la"
)

// TestGCGConvergesLS: generalized CG on plain least squares converges on
// the shared rig.
func TestGCGConvergesLS(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		r := newRigOn(t, tr, 2, 4, nil, denseCfg())
		p, c := Params{}, GCGConfig{RestartEvery: 10}
		p.Step = Constant{A: 0.05}
		p.Updates = 60
		p.SnapshotEvery = 10
		res, err := GCG(r.ac, r.d, p, c, r.fstar)
		if err != nil {
			t.Fatal(err)
		}
		r.assertConverged(t, res, 4)
	})
}

// TestGCGElasticNet: the prox step keeps the ℓ1 term exact — the composite
// objective decreases and stays below the smooth-only start.
func TestGCGElasticNet(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		r := newRigOn(t, tr, 1, 2, nil, denseCfg())
		loss := Composite{Inner: LeastSquares{}, L2: 0.02, L1: 0.01}
		p, c := Params{}, GCGConfig{RestartEvery: 8}
		p.Loss = loss
		p.Step = Constant{A: 0.05}
		p.Updates = 40
		p.SnapshotEvery = 10
		res, err := GCG(r.ac, r.d, p, c, 0)
		if err != nil {
			t.Fatal(err)
		}
		f0 := Objective(r.d, loss, la.NewVec(r.d.NumCols()))
		if f := Objective(r.d, loss, res.W); f >= f0 {
			t.Fatalf("GCG did not reduce the composite objective: %v → %v", f0, f)
		}
	})
}

// TestGCGRestartIsCheckpointRoundTrip pins the restart mechanism to the
// checkpoint contract: a restart at an epoch boundary must leave the
// updater in exactly the state a checkpoint export/import produces (model
// preserved bitwise, conjugate direction and gradient memory dropped).
func TestGCGRestartIsCheckpointRoundTrip(t *testing.T) {
	u := newGCGUpdater(4, nil)
	copy(u.w, []float64{1, -2, 3, -4})
	copy(u.dir, []float64{0.5, 0.5, 0.5, 0.5})
	copy(u.gPrev, []float64{1, 1, 1, 1})
	u.hasDir = true
	wBefore := u.w.Clone()

	if err := u.restart(7); err != nil {
		t.Fatal(err)
	}
	if !la.Equal(u.w, wBefore, 0) {
		t.Fatal("restart changed the model")
	}
	if u.hasDir {
		t.Fatal("restart kept the conjugate direction")
	}
	for j := range u.dir {
		if u.dir[j] != 0 || u.gPrev[j] != 0 {
			t.Fatal("restart kept direction/gradient memory")
		}
	}
}

// TestGCGModeValidation: gcg has no selection modes, so a mode on it is
// refused through the registry, and a negative restart interval errors out.
func TestGCGModeValidation(t *testing.T) {
	r := newRig(t, 1, 1, nil)
	p := Params{Step: Constant{A: 0.05}, Updates: 1}
	gcg, err := LookupSolver("gcg")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"full", "greedy"} {
		cfg := SolveConfig{Params: p}
		cfg.CD.Mode = mode
		_, err := gcg.Solve(context.Background(), SolveRequest{AC: r.ac, Data: r.d, Config: cfg})
		if err == nil || !strings.Contains(err.Error(), "no selection modes") {
			t.Fatalf("mode %q on gcg: err = %v, want one mentioning %q", mode, err, "no selection modes")
		}
	}
	if _, err := GCG(r.ac, r.d, p, GCGConfig{RestartEvery: -1}, 0); err == nil {
		t.Fatal("negative restart interval accepted")
	}
}
