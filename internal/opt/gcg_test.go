package opt

import (
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

// TestGCGGreedyConverges: greedy atom selection on the concentrated-signal
// design converges, reduces the composite objective far faster than the
// same budget of full-gradient rounds spends on tail coordinates, and the
// two selector backends (tree / exact scan) agree at 1e-9.
func TestGCGGreedyConverges(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		d := illCondDataset(t, 200, 512, 8, 61)
		loss := Composite{Inner: LeastSquares{}, L2: 0.001, L1: 0.0005}
		run := func(exactBelow int) la.Vec {
			ac := cdRigOn(t, tr, d, 1, 2)
			p, c := Params{}, GCGConfig{Mode: "greedy", Atoms: 8, exactBelow: exactBelow}
			p.Loss = loss
			p.Step = Constant{A: 0.02}
			p.Updates = 60
			p.SnapshotEvery = 10
			res, err := GCG(ac, d, p, c, 0)
			if err != nil {
				t.Fatal(err)
			}
			return res.W
		}
		wTree := run(-1)
		wScan := run(1 << 30)
		if !la.Equal(wTree, wScan, 1e-9) {
			t.Fatal("tree-selector and scan-selector greedy GCG diverged")
		}
		f0 := Objective(d, loss, la.NewVec(d.NumCols()))
		if f := Objective(d, loss, wTree); f >= f0*0.1 {
			t.Fatalf("greedy GCG barely moved: %v → %v", f0, f)
		}
	})
}

// TestGCGModeValidation: unknown modes and negative atom counts error out.
func TestGCGModeValidation(t *testing.T) {
	r := newRig(t, 1, 1, nil)
	p, c := Params{}, GCGConfig{Mode: "sideways"}
	p.Step = Constant{A: 0.05}
	p.Updates = 1
	if _, err := GCG(r.ac, r.d, p, c, 0); err == nil {
		t.Fatal("unknown GCG mode accepted")
	}
	if _, err := GCG(r.ac, r.d, p, GCGConfig{Atoms: -1}, 0); err == nil {
		t.Fatal("negative atom count accepted")
	}
}

// TestGCGGreedyResume: a greedy GCG run preempted at a checkpoint and
// resumed matches the uninterrupted run at 1e-9 — atom picks re-derive
// from the restored model (the selector rebuilds rather than replaying
// draws), and the step schedule continues from the restored update count.
func TestGCGGreedyResume(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		d := illCondDataset(t, 120, 256, 8, 71)
		loss := Composite{Inner: LeastSquares{}, L2: 0.001, L1: 0.0005}
		c := GCGConfig{Mode: "greedy", Atoms: 8}
		params := func() Params {
			var p Params
			p.Loss = loss
			p.Step = Constant{A: 0.02}
			p.SnapshotEvery = 10
			return p
		}

		full := params()
		full.Updates = 30
		res, err := GCG(cdRigOn(t, tr, d, 1, 2), d, full, c, 0)
		if err != nil {
			t.Fatal(err)
		}

		var cp *Checkpoint
		head := params()
		head.Updates = 10
		head.CheckpointEvery = 10
		head.OnCheckpoint = func(c *Checkpoint) { cp = c }
		if _, err := GCG(cdRigOn(t, tr, d, 1, 2), d, head, c, 0); err != nil {
			t.Fatal(err)
		}
		if cp == nil {
			t.Fatal("no checkpoint emitted")
		}
		tail := params()
		tail.Updates = 30
		tail.Resume = cp
		resumed, err := GCG(cdRigOn(t, tr, d, 1, 2), d, tail, c, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !la.Equal(resumed.W, res.W, 1e-9) {
			t.Fatal("resumed greedy GCG diverged from the uninterrupted run")
		}
	})
}

// TestGCGGreedyFallbackCursor: once the verification fallback trips, atom
// picks come from a deterministic cyclic cursor — consecutive, sorted,
// wrapping blocks keyed off the dispatch counter.
func TestGCGGreedyFallbackCursor(t *testing.T) {
	d := illCondDataset(t, 60, 40, 4, 73)
	u, err := newGreedyGCGUpdater(d, Composite{Inner: LeastSquares{}, L2: 0.01}, GCGConfig{Mode: "greedy", Atoms: 16})
	if err != nil {
		t.Fatal(err)
	}
	u.sel.fallback = true
	seen := map[int32]bool{}
	for r := 0; r < 3; r++ {
		block := u.pickBlock()
		if len(block) != 16 {
			t.Fatalf("pick %d: got %d atoms, want 16", r, len(block))
		}
		for k := 1; k < len(block); k++ {
			if block[k] <= block[k-1] {
				t.Fatalf("pick %d not sorted ascending: %v", r, block)
			}
		}
		for _, j := range block {
			if int(j) >= d.NumCols() {
				t.Fatalf("pick %d out of range: %v", r, block)
			}
			seen[j] = true
		}
	}
	if len(seen) != 40 { // 3 picks × 16 atoms wrap the 40 columns (48 mod 40)
		t.Fatalf("cyclic cursor covered %d/40 columns across 3 wrapping picks", len(seen))
	}
}
