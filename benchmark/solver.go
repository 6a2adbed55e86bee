package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"repro/async"
	"repro/internal/dataset"
	"repro/internal/la"
	"repro/internal/metrics"
	"repro/internal/opt"
	"repro/internal/straggler"
)

// solverWorkload pins one solver job: the paper-side workloads all have
// this shape (generate a dataset, find its optimum, solve on a fresh engine,
// read the convergence trace).
type solverWorkload struct {
	name, why string
	algorithm string
	data      func(seed int64) dataset.SynthConfig
	objective async.Objective // zero = plain least squares

	workers, partitions int
	tcp                 bool          // async.TCP on loopback instead of in-process workers
	stragglerOn         bool          // worker 0 delayed by 100 % of its task time
	minTask             time.Duration // task-time floor the delay acts on

	step          opt.Schedule
	frac          float64
	updates       int // model updates; rounds for the BSP solvers
	snapshotEvery int
	cd            opt.CDConfig

	// epsFrac·(F(0)−F*) is the target error; maxErrFrac·(F(0)−F*) bounds the
	// final error. Both are fractions of the dataset's own initial gap,
	// computed in set-up from the generated inputs and never from the run
	// being measured, so that a different --seed keeps the target as hard.
	epsFrac, maxErrFrac float64
	// bsp solvers see every partial of a round before they step, so the
	// final error is a function of the seed alone and must repeat exactly.
	bsp bool

	smokeShrink     int  // rows and columns are divided by this at smoke scale
	probeUpdates    int  // budget of the Table-1 probe driver on this set-up
	scalingBaseline bool // the traced run adds a 1-worker run of the same job
}

// scaled returns the workload at the given scale. "smoke" is for tests: a
// twentieth of every budget, a target that so short a run still reaches,
// and the data divided by smokeShrink where the full shape is slow to set up.
func (w *solverWorkload) scaled(scale string) *solverWorkload {
	if scale != "smoke" {
		return w
	}
	s := *w
	s.updates = max(w.updates/20, 4*w.snapshotEvery)
	s.probeUpdates = w.probeUpdates / 20
	s.epsFrac, s.maxErrFrac = 0.99, 2
	if w.smokeShrink > 1 {
		s.data = func(seed int64) dataset.SynthConfig {
			c := w.data(seed)
			c.Rows, c.Cols = c.Rows/w.smokeShrink, c.Cols/w.smokeShrink
			return c
		}
	}
	return &s
}

// problem is a solver workload's generated input.
type problem struct {
	d      *dataset.Dataset
	loss   opt.Loss
	fstar  float64
	gap    float64 // F(0) − F*
	eps    float64 // the target error
	maxErr float64 // the bound on the final error
}

func (w *solverWorkload) generate(seed int64, tr *tracer, parent int) (*problem, error) {
	loss, err := w.objective.Resolve()
	if err != nil {
		return nil, err
	}
	p := &problem{loss: loss}
	if err := tr.within("dataset.generate", parent, func() error {
		p.d, err = dataset.Generate(w.data(seed))
		return err
	}); err != nil {
		return nil, err
	}
	if err := tr.within("opt.reference_optimum", parent, func() error {
		_, p.fstar, err = opt.ReferenceOptimumFor(p.d, loss)
		return err
	}); err != nil {
		return nil, err
	}
	p.gap = opt.Objective(p.d, loss, la.NewVec(p.d.NumCols())) - p.fstar
	if !(p.gap > 0) || math.IsInf(p.gap, 0) {
		return nil, fmt.Errorf("%s: degenerate initial gap %g", w.name, p.gap)
	}
	p.eps = w.epsFrac * p.gap
	p.maxErr = w.maxErrFrac * p.gap
	return p, nil
}

// engineHandle is a connected engine plus whatever has to be waited for after it
// closes (the TCP worker goroutines).
type engineHandle struct {
	eng     *async.Engine
	workers sync.WaitGroup
	werr    chan error
}

// engine builds a fresh engine for the workload and distributes the data.
// Engine seed and straggler are derived from the run's seed.
func (w *solverWorkload) engine(seed int64, p *problem, tr *tracer, parent int) (*engineHandle, error) {
	h := &engineHandle{werr: make(chan error, w.workers)}
	opts := []async.Option{
		async.WithWorkers(w.workers),
		async.WithPartitions(w.partitions),
		async.WithSeed(seed + 101),
	}
	if w.tcp {
		addr, err := freeLoopbackAddr()
		if err != nil {
			return nil, err
		}
		opts = append(opts, async.WithTransport(async.TCP(addr)))
		for id := 0; id < w.workers; id++ {
			h.workers.Add(1)
			go func() {
				defer h.workers.Done()
				h.werr <- serveWorkerRetry(addr, id, seed+int64(id)+1)
			}()
		}
	} else {
		if w.stragglerOn {
			opts = append(opts, async.WithStraggler(straggler.ControlledDelay{Worker: 0, Intensity: 1.0}))
		}
		if w.minTask > 0 {
			opts = append(opts, async.WithMinTaskTime(w.minTask))
		}
	}
	err := tr.within("async.engine_new", parent, func() error {
		var err error
		h.eng, err = async.New(opts...)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s: engine: %w", w.name, err)
	}
	if err := tr.within("rdd.distribute", parent, func() error {
		_, err := h.eng.Distribute(p.d)
		return err
	}); err != nil {
		h.close(nil, -1)
		return nil, fmt.Errorf("%s: distribute: %w", w.name, err)
	}
	return h, nil
}

// close shuts the engine down and waits for every worker goroutine.
func (h *engineHandle) close(tr *tracer, parent int) error {
	err := tr.within("async.engine_close", parent, func() error { return h.eng.Close() })
	h.workers.Wait()
	close(h.werr)
	for werr := range h.werr {
		if werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

// freeLoopbackAddr asks the kernel for an unused loopback port.
func freeLoopbackAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// serveWorkerRetry runs one TCP worker, redialling while the engine's
// listener is not up yet. A worker's connection ending with the engine is
// its normal exit, not an error.
func serveWorkerRetry(addr string, id int, seed int64) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := async.ServeWorker(addr, id, nil, seed)
		var op *net.OpError
		if errors.As(err, &op) && op.Op == "dial" {
			if time.Now().After(deadline) {
				return fmt.Errorf("worker %d: %w", id, err)
			}
			time.Sleep(2 * time.Millisecond)
			continue
		}
		return nil
	}
}

func (w *solverWorkload) solveOptions(p *problem) async.SolveOptions {
	return async.SolveOptions{
		Params: opt.Params{
			Step:          w.step,
			SampleFrac:    w.frac,
			Updates:       w.updates,
			SnapshotEvery: w.snapshotEvery,
		},
		Objective: w.objective,
		FStar:     p.fstar,
		CD:        w.cd,
	}
}

// solveOnce is one repetition: fresh engine, distribute, solve, close.
func (w *solverWorkload) solveOnce(seed int64, p *problem, tr *tracer, parent int) (*metrics.Trace, *async.RunStats, error) {
	h, err := w.engine(seed, p, tr, parent)
	if err != nil {
		return nil, nil, err
	}
	var res *async.Result
	err = tr.within("async.solve", parent, func() error {
		var err error
		res, err = h.eng.Solve(context.Background(), w.algorithm, p.d, w.solveOptions(p))
		return err
	})
	stats := h.eng.RunStats()
	if cerr := h.close(tr, parent); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: solve: %w", w.name, err)
	}
	return res.Trace, stats, nil
}

func (w *solverWorkload) id() (name, why string) { return w.name, w.why }

// prepare is everything a user pays before the first update: generate the
// data, find the optimum, build an engine and place the data on it.
func (w *solverWorkload) prepare(rc *runCtx) (instance, error) {
	p, err := w.generate(rc.seed, rc.tr, rc.parent)
	if err != nil {
		return nil, err
	}
	h, err := w.engine(rc.seed, p, rc.tr, rc.parent)
	if err != nil {
		return nil, err
	}
	return &solverInstance{w: w, p: p}, h.close(rc.tr, rc.parent)
}

// solverInstance is a solver workload with its inputs generated.
type solverInstance struct {
	w *solverWorkload
	p *problem
}

// rep is one repetition: a fresh engine, one solve, and the checks on its
// trace — the final error is finite and within the pinned bound, and the
// target error was reached.
func (in *solverInstance) rep(rc *runCtx) (outcome, error) {
	w, p := in.w, in.p
	trace, stats, err := w.solveOnce(rc.seed, p, rc.tr, rc.parent)
	if err != nil {
		return outcome{}, err
	}
	final := trace.FinalError()
	out := outcome{
		opsPerS:     float64(w.updates) / trace.Total.Seconds(),
		latenciesMS: updateLatenciesMS(trace.Points),
		wallS:       trace.Total.Seconds(),
		exact:       math.NaN(),
		attempted:   1,
		layers: map[string]float64{
			"core.staleness_p95": float64(stats.Staleness.P95),
		},
	}
	if w.bsp {
		out.exact = final
	}
	if w.minTask == 0 {
		// with a task floor the workers book their sleeps at nominal length,
		// which undercounts real time by the sleep overshoot (see README)
		out.workerS = float64(w.workers) * trace.Total.Seconds()
	}
	if math.IsNaN(final) || math.IsInf(final, 0) {
		out.failures = append(out.failures, fmt.Sprintf("%s: non-finite final error %v", w.name, final))
	} else if final > p.maxErr {
		out.failures = append(out.failures, fmt.Sprintf("%s: final error %.4g above bound %.4g", w.name, final, p.maxErr))
	}
	if t, ok := timeToError(trace.Points, p.eps); ok {
		out.timeToTargetS = t.Seconds()
	} else {
		out.failures = append(out.failures, fmt.Sprintf("%s: target error %.4g never reached (final %.4g)", w.name, p.eps, final))
	}
	return out, nil
}

// probes times the layers this workload leans on, at its own shapes.
func (in *solverInstance) probes(rc *runCtx, m map[string]float64) error {
	w, p := in.w, in.p
	cols := p.d.NumCols()
	if w.cd.Mode == "greedy" {
		// the cd kernel is not public; what is, is the selection index the
		// greedy rounds maintain and the block-sized delta they apply
		maxipProbes(m, p.d, w.cd.BlockSize)
		block := &la.DeltaVec{N: cols}
		for k := 0; k < w.cd.BlockSize; k++ {
			block.Idx = append(block.Idx, int32(k*(cols/w.cd.BlockSize)))
			block.Val = append(block.Val, 0.5)
		}
		model := la.NewVec(cols)
		m["la.delta_apply_us"] = probeUS(2000, func(int) { block.AxpyDense(-1e-9, model) })
		checkpointProbes(m, cols, false)
		return nil
	}
	saga := w.algorithm == "asaga"
	if err := kernelProbes(m, p.d, p.loss, saga, w.partitions, w.workers, w.frac); err != nil {
		return err
	}
	if w.tcp {
		if err := wireProbes(m, p.d, p.loss, w.partitions, w.workers, w.frac); err != nil {
			return err
		}
	}
	if err := w.probeDriver(m, rc.seed, p, rc.tr, rc.parent, w.probeUpdates); err != nil {
		return err
	}
	if w.scalingBaseline {
		// the plain single-worker run of the same job
		one := *w
		one.workers = 1
		var ops [2]float64
		for i, arm := range []*solverWorkload{w, &one} {
			trace, _, err := arm.solveOnce(rc.seed, p, nil, -1)
			if err != nil {
				return err
			}
			ops[i] = float64(arm.updates) / trace.Total.Seconds()
		}
		m["async.scaling_2w_over_1w"] = ops[0] / ops[1]
	}
	return nil
}
