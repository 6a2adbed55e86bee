package main

import (
	"time"

	"repro/async"
	"repro/internal/dataset"
	"repro/internal/opt"
)

// The workload names are API: later issues cite them. Every parameter
// below is pinned; a change to one is a change to the benchmark and needs a
// fresh baseline. The "why" lines are the ones BENCHMARK.json carries.

// stragglerArm is the paper's Figs. 3-4 cell: 8 workers, 32 partitions,
// worker 0 delayed by 100 % on a 2 ms task floor, so wall time is barrier,
// dispatch and coordination plus sleeps, and worker compute is a few per
// cent of a task. The two arms share the data and differ in solver, step
// rule and budget (one BSP round consumes as many tasks as 8 async updates).
// Their time_to_target_s ratio is the paper's async speed-up.
func stragglerArm(name, why, algorithm string, step opt.Schedule, updates, snapshotEvery int, bsp bool) *solverWorkload {
	return &solverWorkload{
		name: name, why: why,
		algorithm: algorithm,
		data: func(seed int64) dataset.SynthConfig {
			return dataset.MNIST8MLike(dataset.ScaleSmall, seed)
		},
		workers: 8, partitions: 32,
		stragglerOn: true, minTask: 2 * time.Millisecond,
		step: step, frac: 0.1,
		updates: updates, snapshotEvery: snapshotEvery,
		epsFrac: 0.02, maxErrFrac: 0.006,
		bsp:          bsp,
		probeUpdates: 2000,
	}
}

var solverWorkloads = []*solverWorkload{
	stragglerArm("straggler_sgd",
		"Paper Figs. 3-4, sync arm: BSP sgd, 8 workers, one 100 % straggler on a 2 ms task floor; wall time is barrier and dispatch, the round-mode runtime does the work",
		"sgd", opt.InvSqrt{A: 0.05}, 250, 2, true),
	stragglerArm("straggler_asgd",
		"Paper Figs. 3-4, async arm: ASP asgd on the same cell; the streaming-mode runtime does the work, and its time to target against straggler_sgd is the headline speed-up",
		"asgd", opt.AsyncDecay{A: 0.05, Workers: 8}, 2000, 20, false),
	{
		name:      "compute_asaga",
		why:       "Worker-compute-bound with history: dense asaga, 2 workers, no straggler or floor; opt kernels, la loops and the broadcast cache do the work; barrier, wire and store do nothing",
		algorithm: "asaga",
		data: func(seed int64) dataset.SynthConfig {
			return dataset.EpsilonLike(dataset.ScaleSmall, seed)
		},
		workers: 2, partitions: 4,
		step: opt.Constant{A: 0.5 / 400 / 4 / 2}, frac: 0.1,
		updates: 8000, snapshotEvery: 50,
		epsFrac: 0.1, maxErrFrac: 0.03,
		probeUpdates:    2000,
		scalingBaseline: true,
	},
	{
		// The model is held at 10k dimensions: at 20k and more the same job
		// swings 2-6x run to run at GOMAXPROCS=2 (see README). The sampling
		// rate keeps a task's sampled nonzeros under dim/32, the kernel's
		// gate for the sparse path, so results come back as sparse deltas
		// (~8 rows a task); the small batch is why the step is small and the
		// target loose.
		name:      "wire_asgd",
		why:       "The TCP data path: asgd-remote over loopback, 2 connections, 80 KB dense model fetches out and sparse-delta results in; the cluster codec and framed TCP do the work",
		algorithm: "asgd-remote",
		data: func(seed int64) dataset.SynthConfig {
			return dataset.SynthConfig{Name: "tall-sparse", Rows: 20_000, Cols: 10_000, NNZPerRow: 32, Noise: 0.3, Seed: seed}
		},
		workers: 2, partitions: 4, tcp: true,
		step: opt.Constant{A: 0.08}, frac: 0.0008,
		updates: 4000, snapshotEvery: 40,
		epsFrac: 0.2, maxErrFrac: 0.15,
		probeUpdates: 2000,
	},
	{
		// Damping is pinned at 0.25: at 1.0 this job runs to NaN without an
		// error (see README), which the non-finite check would catch.
		// Snapshots are sparse because resolving one costs O(rows x cols) on
		// a composite objective, 0.6 s here (see README): a repetition
		// already spends three times its solve time evaluating its own trace.
		name:      "greedy_cd",
		why:       "The whole greedy decision per round on sparse-wide 3000x200k: MaxIP maintenance, extraction, dispatch, prox apply, settle; la/maxip and the opt prox path do the work",
		algorithm: "cd",
		data: func(seed int64) dataset.SynthConfig {
			return dataset.SparseWide(dataset.ScaleSmall, seed)
		},
		objective: async.Objective{Loss: "least-squares", L2: 0.001, L1: 0.01},
		workers:   2, partitions: 4,
		step: opt.Constant{A: 1}, frac: 1, // unused by cd; Params requires them
		updates: 600, snapshotEvery: 60,
		cd:      opt.CDConfig{BlockSize: 64, Mode: "greedy", Step: 0.25},
		epsFrac: 0.002, maxErrFrac: 0.001,
		bsp:         true,
		smokeShrink: 10, // the full shape takes 6 s to find its optimum
	},
}

var durableJobs = &durableWorkload{
	name:       "durable_jobs",
	why:        "The service plane: fsync'd WAL scheduler, 2 closed-loop clients, tiny 25-update jobs, drain/reopen/recover mid-batch; jobs state machine and store append and replay do the work",
	jobs:       1000,
	clients:    2,
	engines:    2,
	jobUpdates: 25,
}

// workloads lists every workload at the given scale ("full" or "smoke").
func workloads(scale string) []workload {
	var all []workload
	for _, w := range solverWorkloads {
		all = append(all, w.scaled(scale))
	}
	return append(all, durableJobs.scaled(scale))
}
