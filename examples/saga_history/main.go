// saga_history demonstrates the ASYNCbroadcaster (§4.3) with SAGA and
// ASAGA, which need per-sample historical gradients. The driver
// re-broadcasts only (id, version), and each worker fetches a version's
// value once. The paper's Algorithm 4 reads a sample's historical gradient
// at w_br.value(index), the model version the sample last saw, so its
// workers keep old versions cached. The registry solvers run here read no
// old version: for the linear losses they take, a sample's gradient is one
// scalar times its row, and each worker stores that scalar per sample.
// opt.SAGAVersionHistory (the ablation-broadcast experiment) keeps the
// version-reading form. The example runs both variants through the solver
// registry under a controlled-delay straggler and reports the value traffic
// the fetch path actually carried.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/async"
	"repro/internal/dataset"
	"repro/internal/opt"
	"repro/internal/straggler"
)

func run(algo string, updates int) {
	// worker 0 runs at half speed (100% controlled delay)
	eng, err := async.New(
		async.WithWorkers(4),
		async.WithSeed(3),
		async.WithPartitions(8),
		async.WithStraggler(straggler.ControlledDelay{Worker: 0, Intensity: 1.0}),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	d, err := dataset.Generate(dataset.RCV1Like(dataset.ScaleTiny, 11))
	if err != nil {
		log.Fatal(err)
	}
	_, fstar, err := opt.ReferenceOptimum(d)
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Solve(context.Background(), algo, d, async.SolveOptions{
		Params: opt.Params{
			Step:          opt.Constant{A: 0.5 / float64(8) / 4},
			SampleFrac:    0.3,
			Updates:       updates,
			SnapshotEvery: 50,
		},
		FStar: fstar,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-6s final error %.4g in %v; broadcast values fetched: %d (ID-only re-broadcast otherwise, history is one scalar per sample)\n",
		algo, res.Trace.FinalError(), res.Trace.Total.Round(1000), eng.Cluster().FetchCount())
}

func main() {
	fmt.Println("SAGA vs ASAGA with historical gradients under a 100% straggler")
	run("saga", 50) // BSP rounds: every round consumes all workers
	run("asaga", 200)
}
