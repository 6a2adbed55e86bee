// Package experiments contains one sweep per experiment of the paper's
// evaluation (§6), each running its cells once and printing every paper
// view of them: dataset summaries (Table 2), the Mllib comparison (Fig. 2),
// the controlled-delay-straggler sweeps for SGD/ASGD (Figs. 3–4) and
// SAGA/ASAGA (Figs. 5–6), the production-cluster-straggler runs on 32
// workers (Figs. 7–8 and Table 3), and ablations of the engine's design
// choices: the ASYNCbroadcaster (§4.3), local reduction (§7), barrier
// control from BSP through SSP to ASP (§3), and the staleness-dependent
// learning rate with the staleness distribution it keys on (Listing 1).
//
// Every harness returns Series/Table values whose Format methods print the
// same rows or curves the paper reports. Absolute times differ from the
// paper (simulated cluster, scaled datasets); the comparisons — who wins,
// by what factor, how curves respond to delay — are the reproduction
// target.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/async"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/opt"
	"repro/internal/straggler"
)

// Options configures the experiment harnesses.
type Options struct {
	Scale dataset.Scale
	Seed  int64

	// MinTask pads worker tasks to a stable duration so delay intensities
	// act on a well-defined task time (the paper's tasks are seconds long;
	// ours default to 2ms).
	MinTask time.Duration

	// SyncUpdates is the round budget for synchronous algorithms; the
	// asynchronous variants get SyncUpdates × workers updates so both sides
	// consume comparable task counts.
	SyncUpdates int

	// Log receives progress lines; nil silences them.
	Log io.Writer

	// CSVDir, when non-empty, makes Run additionally write each figure
	// series as a CSV file (<label>.csv, '/' replaced by '_') in that
	// directory, for external plotting.
	CSVDir string
}

func (o Options) withDefaults() Options {
	if o.MinTask <= 0 {
		o.MinTask = 2 * time.Millisecond
	}
	if o.SyncUpdates <= 0 {
		switch o.Scale {
		case dataset.ScaleTiny:
			o.SyncUpdates = 30
		case dataset.ScaleSmall:
			o.SyncUpdates = 80
		default:
			o.SyncUpdates = 250
		}
	}
	return o
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// Series is one labelled curve of a figure.
type Series struct {
	Label string
	Trace *metrics.Trace
}

// problem is a generated dataset with its reference optimum.
type problem struct {
	d     *dataset.Dataset
	fstar float64
}

var (
	probMu    sync.Mutex
	probCache = map[string]*problem{}
)

// getProblem generates (or returns the cached) dataset plus its reference
// optimum f(w*).
func getProblem(cfg dataset.SynthConfig) (*problem, error) {
	key := fmt.Sprintf("%s/%d/%d/%d/%d", cfg.Name, cfg.Rows, cfg.Cols, cfg.NNZPerRow, cfg.Seed)
	probMu.Lock()
	defer probMu.Unlock()
	if p, ok := probCache[key]; ok {
		return p, nil
	}
	d, err := dataset.Generate(cfg)
	if err != nil {
		return nil, err
	}
	_, fstar, err := opt.ReferenceOptimum(d)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", cfg.Name, err)
	}
	p := &problem{d: d, fstar: fstar}
	probCache[key] = p
	return p, nil
}

// Algo names a driver algorithm.
type Algo string

// Algorithms available to RunSpec.
const (
	AlgoSGD      Algo = "SGD"
	AlgoASGD     Algo = "ASGD"
	AlgoSAGA     Algo = "SAGA"
	AlgoASAGA    Algo = "ASAGA"
	AlgoMllibSGD Algo = "Mllib-SGD"
)

// numPartitions matches the paper: 32 data partitions in every experiment.
const numPartitions = 32

// snapshotEvery is the trace resolution, in updates.
const snapshotEvery = 5

// RunSpec describes a single optimization run on a fresh cluster.
type RunSpec struct {
	Algo        Algo
	Workers     int
	Delay       straggler.Model
	Frac        float64
	Updates     int // model updates (rounds for sync algorithms)
	StalenessLR bool
	Barrier     core.BarrierFunc
}

// baseStep is the tuned initial step for a dataset: gradients of the
// least-squares loss scale with E‖x‖² ≈ nnz-per-row, so steps are expressed
// relative to it (the paper tunes per dataset the same way).
func baseStep(cfg dataset.SynthConfig) float64 {
	return 0.5 / float64(cfg.NNZPerRow)
}

// stepFor applies the paper's tuning rules (§6.1): SGD uses Mllib's 1/√t
// decay; SAGA a fixed step; asynchronous variants divide the synchronous
// step by the number of workers.
func stepFor(algo Algo, cfg dataset.SynthConfig, workers int) opt.Schedule {
	a0 := baseStep(cfg)
	switch algo {
	case AlgoSGD, AlgoMllibSGD:
		return opt.InvSqrt{A: a0}
	case AlgoASGD:
		return opt.AsyncDecay{A: a0, Workers: float64(workers)}
	case AlgoSAGA:
		return opt.Constant{A: a0 / 4}
	case AlgoASAGA:
		return opt.Constant{A: a0 / 4 / float64(workers)}
	default:
		return opt.InvSqrt{A: a0}
	}
}

// run executes one spec on a fresh engine and returns its trace and the
// coordinator's statistics for it (the staleness histogram). The algorithm
// is resolved through the solver registry: spec.Algo values are registry
// names up to case ("ASGD" → "asgd"), so new methods plug in by
// registration, not another switch arm.
func run(o Options, cfg dataset.SynthConfig, spec RunSpec) (*metrics.Trace, *async.RunStats, error) {
	pr, err := getProblem(cfg)
	if err != nil {
		return nil, nil, err
	}
	delay := spec.Delay
	if delay == nil {
		delay = straggler.None{}
	}
	eng, err := async.New(
		async.WithWorkers(spec.Workers),
		async.WithSeed(o.Seed+101),
		async.WithStraggler(delay),
		async.WithMinTaskTime(o.MinTask),
		async.WithPartitions(numPartitions),
	)
	if err != nil {
		return nil, nil, err
	}
	defer eng.Close()
	res, err := eng.Solve(context.Background(), string(spec.Algo), pr.d, async.SolveOptions{
		Params: opt.Params{
			Step:          stepFor(spec.Algo, cfg, spec.Workers),
			SampleFrac:    effFrac(o.Scale, spec.Frac),
			Updates:       spec.Updates,
			SnapshotEvery: snapshotEvery,
			StalenessLR:   spec.StalenessLR,
			Barrier:       spec.Barrier,
		},
		FStar: pr.fstar,
	})
	if err != nil {
		return nil, nil, err
	}
	res.Trace.Straggler = delay.Name()
	o.logf("  %-10s %-14s straggler=%-10s total=%8.1fms final-err=%.4g",
		spec.Algo, cfg.Name, delay.Name(),
		float64(res.Trace.Total.Microseconds())/1000.0, res.Trace.FinalError())
	return res.Trace, eng.RunStats(), nil
}

// effFrac adjusts a paper sampling rate to the dataset scale: at reduced
// scales partitions hold only a handful of rows, and the paper's 1–10%
// rates would make most mini-batches empty. The multiplier keeps the
// expected batch size meaningful while preserving the relative rates.
func effFrac(scale dataset.Scale, frac float64) float64 {
	mult := 1.0
	switch scale {
	case dataset.ScaleTiny:
		mult = 10
	case dataset.ScaleSmall:
		mult = 2
	}
	if f := frac * mult; f < 1 {
		return f
	}
	return 1
}

// fracSGD returns the paper's SGD sampling rates (§6.1): 10% generally, 5%
// for rcv1.
func fracSGD(name string) float64 {
	if name == "rcv1-like" {
		return 0.05
	}
	return 0.10
}

// fracSAGA returns the paper's SAGA sampling rates: 10% epsilon, 2% rcv1,
// 1% mnist8m.
func fracSAGA(name string) float64 {
	switch name {
	case "rcv1-like":
		return 0.02
	case "mnist8m-like":
		return 0.01
	default:
		return 0.10
	}
}

// Pair selects which algorithm family an experiment sweeps.
type Pair struct {
	Sync, Async Algo
	Frac        func(dataset string) float64
}

// SGDPair is SGD vs ASGD; SAGAPair is SAGA vs ASAGA.
var (
	SGDPair  = Pair{Sync: AlgoSGD, Async: AlgoASGD, Frac: fracSGD}
	SAGAPair = Pair{Sync: AlgoSAGA, Async: AlgoASAGA, Frac: fracSAGA}
)
