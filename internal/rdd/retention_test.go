package rdd_test

import (
	"context"
	"testing"

	"repro/async"
	"repro/internal/dataset"
	"repro/internal/opt"
)

// TestEverySolverLeavesABoundedDriverStore walks the registry: whatever a
// solver broadcasts (its model, svrg's anchor, cd's delta stamp),
// the driver holds at most 4·workers versions of each id when the run ends,
// and a second run on the same engine — an asyncd engine serves jobs for its
// lifetime — does not add to that. Retention is the broadcaster's, so no
// solver can opt out of it: saga, asaga, svrg and admm once kept every
// version they ever published.
func TestEverySolverLeavesABoundedDriverStore(t *testing.T) {
	d, err := dataset.Generate(dataset.SynthConfig{Name: "t", Rows: 160, Cols: 8, NNZPerRow: 5, Noise: 0.05, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 2
	for _, name := range opt.SolverNames() {
		t.Run(name, func(t *testing.T) {
			eng, err := async.New(async.WithWorkers(workers), async.WithSeed(23), async.WithPartitions(4))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			for run := 1; run <= 2; run++ {
				if _, err := eng.Solve(context.Background(), name, d, async.SolveOptions{
					Params: opt.Params{Step: opt.InvSqrt{A: 0.05}, SampleFrac: 0.4, Updates: 300, SnapshotEvery: 100},
				}); err != nil {
					t.Fatal(err)
				}
				held := eng.RDD().DriverVersions()
				if len(held) == 0 && name != "mllib-sgd" { // the one solver that runs without the AC
					t.Fatalf("run %d broadcast nothing", run)
				}
				for id, n := range held {
					if n > 4*workers {
						t.Errorf("run %d left %d versions of %s on the driver, want at most %d", run, n, id, 4*workers)
					}
				}
			}
		})
	}
}
