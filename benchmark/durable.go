package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"repro/async"
	"repro/async/jobs"
	"repro/async/jobs/store"
	"repro/internal/dataset"
	"repro/internal/opt"
)

// durableWorkload is the service plane: a WAL-backed scheduler with fsync
// on, closed-loop clients doing Submit→Wait of deliberately tiny jobs so the
// log, not the solver, sets latency, and a drain/close/reopen/recover cycle
// halfway through so the store is used both ways — appends while serving,
// replay on boot.
type durableWorkload struct {
	name, why  string
	jobs       int // per repetition, half before the restart and half after
	clients    int
	engines    int
	jobUpdates int
}

func (w *durableWorkload) scaled(scale string) *durableWorkload {
	if scale != "smoke" {
		return w
	}
	s := *w
	s.jobs = w.jobs / 20
	return &s
}

func (w *durableWorkload) spec(seed int64) jobs.Spec {
	if seed == 0 {
		seed = 1 // DatasetSpec reads 0 as "default"
	}
	return jobs.Spec{
		Algorithm: "asgd",
		Dataset:   jobs.DatasetSpec{Name: "rcv1-like", Seed: seed},
		Step:      jobs.StepSpec{Kind: "const", A: 0.01},
		Updates:   w.jobUpdates,
	}
}

// service is one scheduler over one open store.
type service struct {
	st    *store.WAL
	sched *jobs.Scheduler
}

// open opens the store in dir and boots a scheduler over it, replaying
// whatever the log holds.
func (w *durableWorkload) open(dir string, tr *tracer, parent int) (*service, error) {
	sv := &service{}
	if err := tr.within("store.open", parent, func() error {
		var err error
		sv.st, err = store.Open(dir, store.Options{})
		return err
	}); err != nil {
		return nil, err
	}
	err := tr.within("jobs.new", parent, func() error {
		var err error
		sv.sched, err = jobs.New(jobs.Config{
			Engines:    w.engines,
			QueueDepth: w.clients + 2,
			Retention:  w.jobs + 2, // the permutation check lists every job
			Store:      sv.st,
			EngineOptions: []async.Option{
				async.WithWorkers(1),
				async.WithPartitions(2),
			},
		})
		return err
	})
	if err != nil {
		sv.st.Close()
		return nil, err
	}
	return sv, nil
}

// shutdown drains the scheduler, closes it and closes the store.
func (sv *service) shutdown(tr *tracer, parent int) error {
	return tr.within("jobs.drain_close", parent, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := sv.sched.Drain(ctx)
		if cerr := sv.sched.Close(); err == nil {
			err = cerr
		}
		if cerr := sv.st.Close(); err == nil {
			err = cerr
		}
		return err
	})
}

// jobRecord is one client-side observation of a job.
type jobRecord struct {
	id       jobs.ID // empty when Submit refused the job
	submitMS float64
	waitMS   float64
	queueMS  float64
	runMS    float64
	failure  string
}

// serve runs the closed-loop clients until n jobs are through.
func (w *durableWorkload) serve(sv *service, seed int64, n int, tr *tracer, parent int) []jobRecord {
	recs := make([]jobRecord, n)
	var next sync.Mutex
	taken := 0
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				i := taken
				taken++
				next.Unlock()
				if i >= n {
					return
				}
				recs[i] = w.oneJob(sv, seed, tr, parent)
			}
		}()
	}
	wg.Wait()
	return recs
}

func (w *durableWorkload) oneJob(sv *service, seed int64, tr *tracer, parent int) jobRecord {
	var r jobRecord
	t0 := time.Now()
	sid := tr.start("jobs.submit", parent)
	id, err := sv.sched.Submit(w.spec(seed))
	tr.end(sid)
	t1 := time.Now()
	r.submitMS = t1.Sub(t0).Seconds() * 1e3
	if err != nil {
		r.failure = fmt.Sprintf("submit refused: %v", err)
		return r
	}
	r.id = id
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	wid := tr.start("jobs.wait", parent)
	job, err := sv.sched.Wait(ctx, id)
	tr.end(wid)
	r.waitMS = time.Since(t1).Seconds() * 1e3
	switch {
	case err != nil:
		r.failure = fmt.Sprintf("%s: wait: %v", id, err)
	case job.State != jobs.StateDone:
		r.failure = fmt.Sprintf("%s ended %s (%s)", id, job.State, job.Err)
	case job.Updates != int64(w.jobUpdates):
		r.failure = fmt.Sprintf("%s applied %d updates, budget %d", id, job.Updates, w.jobUpdates)
	default:
		r.queueMS = job.QueueWaitMS
		r.runMS = job.Finished.Sub(job.Started).Seconds() * 1e3
	}
	return r
}

func (w *durableWorkload) id() (name, why string) { return w.name, w.why }

// prepare boots an empty durable service and pushes one job through it: the
// first job pays engine start, dataset generation and placement.
func (w *durableWorkload) prepare(rc *runCtx) (instance, error) {
	dir, err := os.MkdirTemp(rc.outDir, "wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sv, err := w.open(dir, rc.tr, rc.parent)
	if err != nil {
		return nil, err
	}
	r := w.oneJob(sv, rc.seed, rc.tr, rc.parent)
	if err := sv.shutdown(rc.tr, rc.parent); err != nil {
		return nil, err
	}
	if r.failure != "" {
		return nil, fmt.Errorf("%s: set-up job: %s", w.name, r.failure)
	}
	return durableInstance{w}, nil
}

// durableInstance has no prepared state: every repetition starts from an
// empty WAL directory of its own.
type durableInstance struct{ w *durableWorkload }

// rep is one repetition in its own WAL directory: serve half the jobs,
// restart the service on the same directory, serve the other half, then
// check that every job ended done exactly once with its full budget and
// that the rebooted scheduler lists each acknowledged job exactly once.
func (in durableInstance) rep(rc *runCtx) (outcome, error) {
	w := in.w
	out := outcome{exact: math.NaN(), attempted: w.jobs}
	dir, err := os.MkdirTemp(rc.outDir, "wal-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	sv, err := w.open(dir, rc.tr, rc.parent)
	if err != nil {
		return out, err
	}
	start := time.Now()
	records := w.serve(sv, rc.seed, w.jobs/2, rc.tr, rc.parent)
	restart := time.Now()
	if err := sv.shutdown(rc.tr, rc.parent); err != nil {
		return out, fmt.Errorf("%s: shutdown: %w", w.name, err)
	}
	if sv, err = w.open(dir, rc.tr, rc.parent); err != nil {
		return out, fmt.Errorf("%s: reboot: %w", w.name, err)
	}
	restartS := time.Since(restart).Seconds()
	booted := sv.sched.Stats()
	records = append(records, w.serve(sv, rc.seed, w.jobs-w.jobs/2, rc.tr, rc.parent)...)
	out.wallS = time.Since(start).Seconds()
	out.timeToTargetS = out.wallS // the target is the whole batch done
	out.opsPerS = float64(w.jobs) / out.wallS

	listed := map[jobs.ID]int{}
	for _, j := range sv.sched.List() {
		listed[j.ID]++
		if j.State != jobs.StateDone {
			out.failures = append(out.failures, fmt.Sprintf("%s listed %s after the restart", j.ID, j.State))
		}
	}
	acked := 0
	var submitMS, waitMS, queueMS, runMS []float64
	for _, r := range records {
		if r.failure != "" {
			out.failures = append(out.failures, r.failure)
		}
		if r.id == "" {
			continue
		}
		acked++
		if listed[r.id] != 1 {
			out.failures = append(out.failures, fmt.Sprintf("%s listed %d times after the restart", r.id, listed[r.id]))
		}
		out.latenciesMS = append(out.latenciesMS, r.submitMS+r.waitMS)
		submitMS, waitMS = append(submitMS, r.submitMS), append(waitMS, r.waitMS)
		queueMS, runMS = append(queueMS, r.queueMS), append(runMS, r.runMS)
	}
	if len(listed) != acked {
		out.failures = append(out.failures, fmt.Sprintf("scheduler lists %d jobs, %d were acknowledged", len(listed), acked))
	}
	if booted.RecoveredJobs != w.jobs/2 {
		out.failures = append(out.failures, fmt.Sprintf("recovered %d jobs, %d were acknowledged before the restart", booted.RecoveredJobs, w.jobs/2))
	}
	storeErrors := sv.sched.Stats().StoreErrors
	if storeErrors != 0 {
		out.failures = append(out.failures, fmt.Sprintf("%d store errors", storeErrors))
	}
	if rc.tr != nil {
		out.layers = map[string]float64{
			"jobs.submit_ms_p50":      quantile(submitMS, 0.5),
			"jobs.submit_ms_p95":      quantile(submitMS, tailPercentile(len(submitMS), 0.95)),
			"jobs.wait_ms_p50":        quantile(waitMS, 0.5),
			"jobs.queue_wait_ms_mean": mean(queueMS),
			"jobs.run_ms_mean":        mean(runMS),
			"jobs.store_errors":       float64(storeErrors),
			"jobs.recovered_jobs":     float64(booted.RecoveredJobs),
			"jobs.recovery_ms":        booted.RecoveryMS,
			"jobs.restart_ms":         restartS * 1e3,
			"trace.job_latency_coverage": (quantile(submitMS, 0.5) + quantile(waitMS, 0.5)) /
				quantile(out.latenciesMS, 0.5),
		}
	}
	return out, sv.shutdown(rc.tr, rc.parent)
}

// probes times the layers under a job: the isolated durable append, and the
// kernel, scatter and checkpoint at the job's own dataset shape.
func (in durableInstance) probes(rc *runCtx, m map[string]float64) error {
	if err := storeProbes(m, rc.outDir); err != nil {
		return err
	}
	spec := in.w.spec(rc.seed)
	cfg, err := dataset.ByName(spec.Dataset.Name, dataset.ScaleTiny, spec.Dataset.Seed)
	if err != nil {
		return err
	}
	d, err := dataset.Generate(cfg)
	if err != nil {
		return err
	}
	// one worker holding both partitions, the scheduler's default 0.3 sampling
	return kernelProbes(m, d, opt.LeastSquares{}, false, 2, 1, 0.3)
}
