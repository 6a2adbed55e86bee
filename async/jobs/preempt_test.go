package jobs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/async"
	"repro/async/jobs"
	"repro/internal/dataset"
	"repro/internal/la"
	"repro/internal/metrics"
	"repro/internal/opt"
)

// pgate is a preempt-aware controllable test solver: it announces each
// dispatch (fresh starts and checkpoint resumes separately), then blocks
// until released, canceled, or preempted — on preemption it returns a
// synthetic checkpoint tagged with its Updates budget.
type pgate struct {
	name    string
	starts  chan int
	resumes chan int64
	release chan struct{}
}

func newPGate(name string) *pgate {
	return &pgate{
		name:    name,
		starts:  make(chan int, 64),
		resumes: make(chan int64, 64),
		release: make(chan struct{}),
	}
}

func (g *pgate) Name() string { return g.name }

func (g *pgate) Solve(ctx context.Context, e *async.Engine, d *dataset.Dataset, opts async.SolveOptions) (*async.Result, error) {
	if opts.Params.Resume != nil {
		g.resumes <- opts.Params.Resume.Updates
	} else {
		g.starts <- opts.Params.Updates
	}
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-g.release:
			return &async.Result{
				Trace: &metrics.Trace{
					Algorithm: g.name,
					Dataset:   d.Name,
					Points:    []metrics.TracePoint{{Updates: int64(opts.Params.Updates)}},
				},
				W: la.NewVec(d.NumCols()),
			}, nil
		case <-tick.C:
			if opts.Params.Preempt.Requested() {
				return nil, &opt.PreemptedError{Checkpoint: &opt.Checkpoint{
					Algorithm: g.name,
					W:         la.NewVec(d.NumCols()),
					Updates:   int64(opts.Params.Updates),
				}}
			}
		}
	}
}

var (
	gateVictim  = newPGate("pgate-victim")
	gateUrgent  = newGate("gate-urgent")
	gateManual  = newPGate("pgate-manual")
	gateHTTPPre = newPGate("pgate-http")
)

func init() {
	for _, g := range []*pgate{gateVictim, gateManual, gateHTTPPre} {
		if err := async.Register(g); err != nil {
			panic(err)
		}
	}
	if err := async.Register(gateUrgent); err != nil {
		panic(err)
	}
}

func expectResume(t *testing.T, g *pgate, updates int64) {
	t.Helper()
	select {
	case got := <-g.resumes:
		if got != updates {
			t.Fatalf("resumed from checkpoint at %d, want %d", got, updates)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("job never resumed from its checkpoint")
	}
}

// TestPriorityContentionPreempts: on a saturated single-engine pool, a
// strictly-higher-priority submission checkpoints the running
// lower-priority job aside, runs to completion, and the victim resumes
// from its checkpoint and finishes.
func TestPriorityContentionPreempts(t *testing.T) {
	s := newScheduler(t, jobs.Config{Engines: 1})
	low := gateSpec2(gateVictim.name, 41)
	lowID, err := s.Submit(low)
	if err != nil {
		t.Fatal(err)
	}
	expectStartTag(t, gateVictim.starts, 41)

	urgent := gateSpec(gateUrgent, 99)
	urgent.Priority = 5
	urgentID, err := s.Submit(urgent)
	if err != nil {
		t.Fatal(err)
	}
	// the victim is checkpointed aside; the urgent job takes the engine
	expectStart(t, gateUrgent, 99)
	if job, err := s.Status(lowID); err != nil || job.State != jobs.StatePreempted {
		t.Fatalf("victim state %v (err %v), want preempted", job.State, err)
	}
	if cp, err := s.Checkpoint(lowID); err != nil || cp.Updates != 41 {
		t.Fatalf("victim checkpoint %+v (err %v)", cp, err)
	}
	release(t, gateUrgent)
	waitState(t, s, urgentID, jobs.StateDone)

	// the victim resumes from its checkpoint and completes
	expectResume(t, gateVictim, 41)
	releasePG(t, gateVictim)
	job := waitState(t, s, lowID, jobs.StateDone)
	if job.Preemptions != 1 {
		t.Fatalf("victim preemptions %d, want 1", job.Preemptions)
	}
	types := eventTypes(t, s, lowID)
	for _, want := range []jobs.EventType{jobs.EventPreempted, jobs.EventResumed} {
		if !strings.Contains(types, string(want)) {
			t.Fatalf("victim events %q missing %q", types, want)
		}
	}
}

// TestEqualPriorityDoesNotPreempt: preemption requires strictly higher
// priority — an equal-priority arrival waits.
func TestEqualPriorityDoesNotPreempt(t *testing.T) {
	s := newScheduler(t, jobs.Config{Engines: 1})
	lowID, err := s.Submit(gateSpec2(gateVictim.name, 43))
	if err != nil {
		t.Fatal(err)
	}
	expectStartTag(t, gateVictim.starts, 43)
	peerID, err := s.Submit(gateSpec2(gateVictim.name, 44))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // give a wrong preemption time to fire
	if job, _ := s.Status(lowID); job.State != jobs.StateRunning {
		t.Fatalf("equal-priority arrival disturbed the running job: %s", job.State)
	}
	if job, _ := s.Status(peerID); job.State != jobs.StateQueued {
		t.Fatalf("peer should queue, is %s", job.State)
	}
	releasePG(t, gateVictim)
	waitState(t, s, lowID, jobs.StateDone)
	expectStartTag(t, gateVictim.starts, 44)
	releasePG(t, gateVictim)
	waitState(t, s, peerID, jobs.StateDone)
}

// TestManualPreemptRequeuesAndResumes: an explicit Preempt call yields the
// engine; with nothing else waiting the job resumes immediately.
func TestManualPreemptRequeuesAndResumes(t *testing.T) {
	s := newScheduler(t, jobs.Config{Engines: 1})
	id, err := s.Submit(gateSpec2(gateManual.name, 51))
	if err != nil {
		t.Fatal(err)
	}
	expectStartTag(t, gateManual.starts, 51)
	if err := s.Preempt(id); err != nil {
		t.Fatal(err)
	}
	expectResume(t, gateManual, 51)
	releasePG(t, gateManual)
	job := waitState(t, s, id, jobs.StateDone)
	if job.Preemptions != 1 {
		t.Fatalf("preemptions %d, want 1", job.Preemptions)
	}
	if s.Stats().Preempted != 1 {
		t.Fatalf("stats preempted %d, want 1", s.Stats().Preempted)
	}
}

// TestPreemptValidation: only running jobs can be preempted.
func TestPreemptValidation(t *testing.T) {
	s := newScheduler(t, jobs.Config{Engines: 1})
	if err := s.Preempt("job-999999"); !errors.Is(err, jobs.ErrUnknownJob) {
		t.Fatalf("unknown job: %v", err)
	}
	runningID, err := s.Submit(gateSpec2(gateManual.name, 52))
	if err != nil {
		t.Fatal(err)
	}
	expectStartTag(t, gateManual.starts, 52)
	queuedID, err := s.Submit(gateSpec2(gateManual.name, 53))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Preempt(queuedID); !errors.Is(err, jobs.ErrNotRunning) {
		t.Fatalf("queued job preempt: %v", err)
	}
	if err := s.Cancel(queuedID); err != nil {
		t.Fatal(err)
	}
	releasePG(t, gateManual)
	done := waitState(t, s, runningID, jobs.StateDone)
	if err := s.Preempt(done.ID); !errors.Is(err, jobs.ErrNotRunning) {
		t.Fatalf("terminal job preempt: %v", err)
	}
	// resume_from validation
	if _, err := s.Submit(jobs.Spec{ResumeFrom: "job-424242"}); !errors.Is(err, jobs.ErrUnknownJob) {
		t.Fatalf("resume_from unknown: %v", err)
	}
	if _, err := s.Submit(jobs.Spec{ResumeFrom: done.ID}); !errors.Is(err, jobs.ErrNoCheckpoint) {
		t.Fatalf("resume_from without checkpoint: %v", err)
	}
}

// TestPreemptResumeEquivalenceE2E is the acceptance check at the scheduler
// layer: a real ASGD job preempted mid-run and resumed from its checkpoint
// must produce bit-for-bit the same final model as the same spec run
// uninterrupted (single-worker engines; the checkpoint carries the update
// clock and the task-seed stream position).
func TestPreemptResumeEquivalenceE2E(t *testing.T) {
	spec := jobs.Spec{
		Algorithm:     "asgd",
		Dataset:       jobs.DatasetSpec{Name: "rcv1-like"},
		Step:          jobs.StepSpec{Kind: "const", A: 0.01},
		Updates:       1500,
		SnapshotEvery: 25,
	}
	engOpts := []async.Option{
		async.WithWorkers(1),
		async.WithPartitions(2),
		async.WithMinTaskTime(200 * time.Microsecond),
	}
	run := func(preemptAfterProgress bool) la.Vec {
		s := newScheduler(t, jobs.Config{Engines: 1, EngineOptions: engOpts})
		id, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if preemptAfterProgress {
			events, stop, err := s.Subscribe(id)
			if err != nil {
				t.Fatal(err)
			}
			sawProgress := false
			for ev := range events {
				if ev.Type == jobs.EventProgress && !sawProgress {
					sawProgress = true
					if err := s.Preempt(id); err != nil {
						t.Fatalf("preempt: %v", err)
					}
				}
			}
			stop()
			job := waitState(t, s, id, jobs.StateDone)
			if job.Preemptions < 1 {
				t.Fatalf("job completed without being preempted (preemptions %d)", job.Preemptions)
			}
		} else {
			waitState(t, s, id, jobs.StateDone)
		}
		res, err := s.Result(id)
		if err != nil || res == nil {
			t.Fatalf("no result: %v", err)
		}
		return res.W
	}
	wFull := run(false)
	wPre := run(true)
	if !la.Equal(wFull, wPre, 0) {
		t.Fatal("preempted-then-resumed model != uninterrupted model on a fixed seed")
	}
}

// TestPreemptHTTPAndResumeFrom drives the new HTTP surface: preempt via
// POST, download the binary checkpoint, and resume it as a new job with
// resume_from.
func TestPreemptHTTPAndResumeFrom(t *testing.T) {
	s := newScheduler(t, jobs.Config{Engines: 1})
	srv := httptest.NewServer(jobs.NewHandler(s))
	defer srv.Close()

	spec := gateSpec2(gateHTTPPre.name, 61)
	body, _ := json.Marshal(spec)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var submitted struct {
		ID jobs.ID `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	expectStartTag(t, gateHTTPPre.starts, 61)

	// no checkpoint yet
	if resp, _ := http.Get(srv.URL + "/v1/jobs/" + string(submitted.ID) + "/checkpoint"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("checkpoint before capture: %d", resp.StatusCode)
	}

	resp, err = http.Post(srv.URL+"/v1/jobs/"+string(submitted.ID)+"/preempt", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("preempt status %d", resp.StatusCode)
	}
	// the job resumes on its own (nothing else contends); cancel the
	// resumed run so the checkpoint stays inspectable
	expectResume(t, gateHTTPPre, 61)

	resp, err = http.Get(srv.URL + "/v1/jobs/" + string(submitted.ID) + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint status %d", resp.StatusCode)
	}
	cp, err := opt.LoadCheckpoint(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("checkpoint body does not parse: %v", err)
	}
	if cp.Algorithm != gateHTTPPre.name || cp.Updates != 61 {
		t.Fatalf("checkpoint %+v", cp)
	}

	// resume_from spawns a fresh job seeded with the same checkpoint
	resumeBody := fmt.Sprintf(`{"resume_from": %q}`, submitted.ID)
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(resumeBody))
	if err != nil {
		t.Fatal(err)
	}
	var resumed struct {
		ID jobs.ID `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&resumed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resume_from status %d", resp.StatusCode)
	}
	// finish the original resumed run, then the resume_from job dispatches
	releasePG(t, gateHTTPPre)
	waitState(t, s, submitted.ID, jobs.StateDone)
	expectResume(t, gateHTTPPre, 61)
	releasePG(t, gateHTTPPre)
	job := waitState(t, s, resumed.ID, jobs.StateDone)
	if job.ResumedFrom != submitted.ID {
		t.Fatalf("resumed_from %q, want %q", job.ResumedFrom, submitted.ID)
	}
}

// TestResumeFromInheritsSpec: a bare resume_from submission continues the
// source job's exact configuration — objective, schedule, sampling,
// priority — rather than resetting hyperparameters to global defaults.
func TestResumeFromInheritsSpec(t *testing.T) {
	s := newScheduler(t, jobs.Config{Engines: 1})
	src := jobs.Spec{
		Algorithm:       gateManual.name,
		Dataset:         jobs.DatasetSpec{Name: "rcv1-like"},
		Loss:            "logistic",
		Objective:       async.Objective{L2: 0.013, L1: 0.0017},
		Step:            jobs.StepSpec{Kind: "const", A: 0.007},
		SampleFrac:      0.11,
		Updates:         71,
		Priority:        3,
		StalenessLR:     true,
		CheckpointEvery: 9,
	}
	srcID, err := s.Submit(src)
	if err != nil {
		t.Fatal(err)
	}
	expectStartTag(t, gateManual.starts, 71)
	if err := s.Preempt(srcID); err != nil {
		t.Fatal(err)
	}
	expectResume(t, gateManual, 71) // resumes itself; now holds a checkpoint
	resumedID, err := s.Submit(jobs.Spec{ResumeFrom: srcID, Updates: 72})
	if err != nil {
		t.Fatal(err)
	}
	job, err := s.Status(resumedID)
	if err != nil {
		t.Fatal(err)
	}
	got := job.Spec
	if got.Loss != "logistic" || got.Step.A != 0.007 || got.SampleFrac != 0.11 ||
		got.Priority != 3 || !got.StalenessLR || got.CheckpointEvery != 9 ||
		got.Algorithm != gateManual.name || got.Dataset.Name != "rcv1-like" {
		t.Fatalf("resume_from lost source spec fields: %+v", got)
	}
	// the full composite objective rides along: merged loss and penalties
	if got.Objective.Loss != "logistic" || got.Objective.L2 != 0.013 || got.Objective.L1 != 0.0017 {
		t.Fatalf("resume_from lost the composite objective: %+v", got.Objective)
	}
	if got.Updates != 72 {
		t.Fatalf("explicit override lost: updates %d, want 72", got.Updates)
	}
	s.Cancel(resumedID)
	releasePG(t, gateManual)
	waitState(t, s, srcID, jobs.StateDone)
}

// TestCancelWhilePreempted: a job canceled while parked in StatePreempted
// finalizes cleanly and never reports a negative queue wait.
func TestCancelWhilePreempted(t *testing.T) {
	s := newScheduler(t, jobs.Config{Engines: 1})
	aID, err := s.Submit(gateSpec2(gateManual.name, 55))
	if err != nil {
		t.Fatal(err)
	}
	expectStartTag(t, gateManual.starts, 55)
	bID, err := s.Submit(gateSpec2(gateManual.name, 56))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Preempt(aID); err != nil {
		t.Fatal(err)
	}
	// A re-queues behind B; B takes the engine, leaving A preempted
	expectStartTag(t, gateManual.starts, 56)
	if job, _ := s.Status(aID); job.State != jobs.StatePreempted {
		t.Fatalf("job A is %s, want preempted", job.State)
	} else if job.QueueWaitMS < 0 {
		t.Fatalf("preempted snapshot has negative queue wait %v", job.QueueWaitMS)
	}
	if err := s.Cancel(aID); err != nil {
		t.Fatal(err)
	}
	job := waitState(t, s, aID, jobs.StateCanceled)
	if job.QueueWaitMS < 0 {
		t.Fatalf("canceled-while-preempted snapshot has negative queue wait %v", job.QueueWaitMS)
	}
	releasePG(t, gateManual)
	waitState(t, s, bID, jobs.StateDone)
}

// --- helpers ---

func gateSpec2(algo string, tag int) jobs.Spec {
	return jobs.Spec{
		Algorithm: algo,
		Dataset:   jobs.DatasetSpec{Name: "rcv1-like"},
		Updates:   tag,
	}
}

func expectStartTag(t *testing.T, starts chan int, tag int) {
	t.Helper()
	select {
	case got := <-starts:
		if got != tag {
			t.Fatalf("started job %d, want %d", got, tag)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("no job started (want %d)", tag)
	}
}

func releasePG(t *testing.T, g *pgate) {
	t.Helper()
	select {
	case g.release <- struct{}{}:
	case <-time.After(10 * time.Second):
		t.Fatal("no run consumed the release token")
	}
}

func eventTypes(t *testing.T, s *jobs.Scheduler, id jobs.ID) string {
	t.Helper()
	events, stop, err := s.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	var types []string
	for ev := range events {
		types = append(types, string(ev.Type))
	}
	return strings.Join(types, ",")
}
