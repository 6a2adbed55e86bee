package bench

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/la"
)

// TestMaxIPSelectionAcceptance pins the headline claim of the greedy-
// selection subsystem: at the 1M-dimension sparse-wide shape, a top-16
// selection against the maintained tournament tree is at least 10× faster
// than the exact O(d) scan it replaces. Incremental query maintenance is
// bitwise-identical between the two backends (same dirty-column
// re-scoring, see maintenanceNs), so extraction is the entire
// differential — and the true ratio there is orders of magnitude
// (O(k·log d) vs a pass over ~860k stored columns), leaving the 10×
// floor plenty of margin on noisy CI machines.
func TestMaxIPSelectionAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark comparison")
	}
	x, cv, err := selectWide()
	if err != nil {
		t.Fatal(err)
	}
	treeNs := extractionNs(x, cv, -1)
	scanNs := extractionNs(x, cv, 1<<30)
	if scanNs < 10*treeNs {
		t.Errorf("selection round: tree %.0fns vs scan %.0fns — want ≥ 10× win", treeNs, scanNs)
	}
}

// TestGreedyRoundsAcceptance pins the convergence half of the claim:
// on the seeded concentrated-signal design, greedy (Gauss-Southwell)
// block selection reaches 1e-4 relative suboptimality in strictly fewer
// rounds than cyclic order. The run is deterministic (fixed dataset seed,
// deterministic selection), so a strict inequality is a stable pin.
func TestGreedyRoundsAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark comparison")
	}
	greedy, cyclic, err := greedyRounds()
	if err != nil {
		t.Fatal(err)
	}
	if greedy >= cyclic {
		t.Errorf("rounds to 1e-4: greedy %.0f vs cyclic %.0f — greedy must be strictly fewer", greedy, cyclic)
	}
	if greedy >= 400 {
		t.Errorf("greedy never reached tolerance within the %d-round budget", 400)
	}
}

// TestSelectHelpersSmoke exercises the measurement helpers on a small
// shape so their mechanics stay correct independent of the full-scale
// acceptance runs: maintenance flushing and the metric emitters it feeds.
func TestSelectHelpersSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark helpers")
	}
	d, err := dataset.Generate(dataset.SparseWide(dataset.ScaleTiny, 1))
	if err != nil {
		t.Fatal(err)
	}
	cv := la.NewColView(d.X)
	if ns := maintenanceNs(d.X, cv); ns <= 0 {
		t.Fatalf("maintenanceNs = %v", ns)
	}
}
