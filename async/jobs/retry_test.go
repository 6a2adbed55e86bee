package jobs_test

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/async"
	"repro/async/jobs"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/la"
	"repro/internal/metrics"
)

// flakySolver fails its first failN runs with a transient error, then
// succeeds — the shape of an OOM'd worker or a dropped connection that a
// retry from the last checkpoint absorbs.
type flakySolver struct {
	name     string
	failN    int32
	attempts atomic.Int32
}

func (f *flakySolver) Name() string { return f.name }

func (f *flakySolver) Solve(ctx context.Context, e *async.Engine, d *dataset.Dataset, opts async.SolveOptions) (*async.Result, error) {
	if f.attempts.Add(1) <= f.failN {
		return nil, errors.New("transient engine failure")
	}
	return &async.Result{
		Trace: &metrics.Trace{
			Algorithm: f.name,
			Dataset:   d.Name,
			Points:    []metrics.TracePoint{{Updates: int64(opts.Params.Updates)}},
		},
		W: la.NewVec(d.NumCols()),
	}, nil
}

var (
	flakyOnce   = &flakySolver{name: "flaky-once", failN: 1}
	flakyAlways = &flakySolver{name: "flaky-always", failN: 1 << 30}
)

func init() {
	for _, s := range []async.Solver{flakyOnce, flakyAlways} {
		if err := async.Register(s); err != nil {
			panic(err)
		}
	}
}

func flakySpec(name string, tag int) jobs.Spec {
	return jobs.Spec{
		Algorithm: name,
		Dataset:   jobs.DatasetSpec{Name: "rcv1-like"},
		Updates:   tag,
	}
}

// TestRetryTransientFailure: the default retry budget (MaxRetries 1)
// absorbs one transient run failure — the job re-queues, re-runs, and
// finishes Done with the retry counted in Stats and the job snapshot.
func TestRetryTransientFailure(t *testing.T) {
	s := newScheduler(t, jobs.Config{Engines: 1})
	id, err := s.Submit(flakySpec("flaky-once", 111))
	if err != nil {
		t.Fatal(err)
	}
	job := waitState(t, s, id, jobs.StateDone)
	if job.Retries != 1 {
		t.Fatalf("job snapshot retries %d, want 1", job.Retries)
	}
	if st := s.Stats(); st.Retries != 1 || st.Failed != 0 {
		t.Fatalf("stats retries %d failed %d, want 1 and 0", st.Retries, st.Failed)
	}
}

// TestRetryBudgetExhausted: a persistently failing run fails for real once
// the budget is spent — MaxRetries 2 means three attempts total.
func TestRetryBudgetExhausted(t *testing.T) {
	s := newScheduler(t, jobs.Config{Engines: 1})
	before := flakyAlways.attempts.Load()
	spec := flakySpec("flaky-always", 112)
	spec.MaxRetries = 2
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	job := waitState(t, s, id, jobs.StateFailed)
	if job.Retries != 2 {
		t.Fatalf("job snapshot retries %d, want 2", job.Retries)
	}
	if got := flakyAlways.attempts.Load() - before; got != 3 {
		t.Fatalf("solver ran %d times, want 3 (1 + 2 retries)", got)
	}
}

// TestRetryDisabled: MaxRetries -1 turns retries off — the first transient
// failure is terminal.
func TestRetryDisabled(t *testing.T) {
	s := newScheduler(t, jobs.Config{Engines: 1})
	before := flakyAlways.attempts.Load()
	spec := flakySpec("flaky-always", 113)
	spec.MaxRetries = -1
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	job := waitState(t, s, id, jobs.StateFailed)
	if job.Retries != 0 {
		t.Fatalf("job snapshot retries %d, want 0", job.Retries)
	}
	if got := flakyAlways.attempts.Load() - before; got != 1 {
		t.Fatalf("solver ran %d times, want exactly 1", got)
	}
}

// TestDivergedJobFailsWithoutRetry: a job whose model runs to NaN ends
// failed, carrying the solver's divergence message, and spends none of its
// retry budget — the same job would diverge the same way again.
func TestDivergedJobFailsWithoutRetry(t *testing.T) {
	s := newScheduler(t, jobs.Config{Engines: 1})
	id, err := s.Submit(jobs.Spec{
		Algorithm:  "asgd",
		Dataset:    jobs.DatasetSpec{Name: "rcv1-like"},
		Step:       jobs.StepSpec{Kind: "const", A: 1e200},
		Updates:    300,
		MaxRetries: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	job := waitState(t, s, id, jobs.StateFailed)
	if !strings.Contains(job.Err, "diverged") || !strings.Contains(job.Err, "coordinate") {
		t.Fatalf("failed job's message does not name the divergence: %q", job.Err)
	}
	if job.Retries != 0 {
		t.Fatalf("a diverged job was retried %d times", job.Retries)
	}
}

// failingTaskSolver drives the raw AC loop with an op that errors on every
// worker: what a solver whose args fail to decode, or whose op panics, looks
// like from the scheduler.
type failingTaskSolver struct{ attempts atomic.Int32 }

const failingTaskOp = "jobs.test.fail"

func (*failingTaskSolver) Name() string { return "failing-task" }

func (f *failingTaskSolver) Solve(_ context.Context, e *async.Engine, _ *dataset.Dataset, _ async.SolveOptions) (*async.Result, error) {
	f.attempts.Add(1)
	ac := e.Context()
	for {
		sel, err := ac.ASYNCbarrier(core.ASP(), nil)
		if err != nil {
			return nil, err
		}
		if _, err := ac.ASYNCreduceOp(sel, failingTaskOp, func(int, []int) any { return nil }); err != nil {
			return nil, err
		}
		if _, err := ac.ASYNCcollectAll(); errors.Is(err, core.ErrTaskFailed) {
			return nil, err
		}
	}
}

var failingTask = &failingTaskSolver{}

func init() {
	cluster.RegisterOp(failingTaskOp, func(*cluster.Env, *cluster.Task) (any, error) {
		return nil, errors.New("boom: the op fails on every worker")
	})
	if err := async.Register(failingTask); err != nil {
		panic(err)
	}
}

// TestFailedTaskJobFailsWithoutRetry: a job whose every task errors on the
// workers ends failed with the worker's message after one attempt — the
// engine reports it where it used to re-dispatch forever, and the scheduler
// spends no retry on a failure a retry would repeat.
func TestFailedTaskJobFailsWithoutRetry(t *testing.T) {
	s := newScheduler(t, jobs.Config{Engines: 1})
	before := failingTask.attempts.Load()
	spec := flakySpec("failing-task", 114)
	spec.MaxRetries = 3
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	job := waitState(t, s, id, jobs.StateFailed)
	if !strings.Contains(job.Err, "boom: the op fails on every worker") {
		t.Fatalf("failed job's message does not carry the worker's: %q", job.Err)
	}
	if got := failingTask.attempts.Load() - before; got != 1 || job.Retries != 0 {
		t.Fatalf("solver ran %d times with %d retries, want one attempt", got, job.Retries)
	}
}
