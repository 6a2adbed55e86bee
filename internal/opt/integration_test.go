package opt

import (
	"testing"

	"repro/internal/straggler"
)

// TestLongASAGAStability: long ASAGA runs under a controlled straggler
// must usually stay numerically stable and converge — guards against
// systematic divergence from stale history interactions. A single run's
// outcome is heavy-tailed in the interleaving (stale historical gradients
// occasionally stall a run), so stability is asserted as a supermajority
// over independent runs, plus a strong best-case.
func TestLongASAGAStability(t *testing.T) {
	const runs = 7
	stable := 0
	best := 0.0
	for i := 0; i < runs; i++ {
		r := newRig(t, 4, 8, straggler.ControlledDelay{Worker: 0, Intensity: 1})
		res, err := ASAGA(r.ac, r.d, Params{
			Step: Constant{A: 0.05 / 4}, SampleFrac: 0.3, Updates: 1200, SnapshotEvery: 200,
		}, r.fstar)
		if err != nil {
			t.Fatal(err)
		}
		r.assertTrace(t, res)
		nan := false
		for _, p := range res.Trace.Points {
			if p.Error != p.Error {
				nan = true
				break
			}
		}
		factor := r.reduction(res)
		if factor > best {
			best = factor
		}
		if !nan && factor >= 2 {
			stable++
		}
	}
	if stable < 4 {
		t.Fatalf("only %d of %d long runs stayed stable (NaN-free, >=2x reduction)", stable, runs)
	}
	if best < 8 {
		t.Fatalf("best long run reduced error only %.2fx, want >= 8x", best)
	}
}
