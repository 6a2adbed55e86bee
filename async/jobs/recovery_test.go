package jobs_test

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/async"
	"repro/async/jobs"
	"repro/async/jobs/store"
	"repro/internal/la"
	"repro/internal/opt"
)

// TestRecoveryEdgeCases replays a hand-built log through a scheduler over
// a sole-owner WAL: terminal jobs land in retention with their detail, orphan transitions are skipped, a checkpointed record whose spill
// is missing restarts the job from scratch, and a spec that no longer
// normalizes fails loudly instead of wedging the queue.
func TestRecoveryEdgeCases(t *testing.T) {
	m := openSole(t)
	specJSON := func(sp jobs.Spec) []byte {
		b, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	good := jobs.Spec{
		Algorithm: "asgd",
		Dataset:   jobs.DatasetSpec{Name: "rcv1-like"},
		Step:      jobs.StepSpec{Kind: "const", A: 0.01},
		Updates:   25,
	}
	bogus := good
	bogus.Algorithm = "no-such-algorithm"
	for _, rec := range []*store.Record{
		{Type: store.TypeSubmitted, Job: "job-000001", JobSeq: 1, Time: 100, Spec: specJSON(good)},
		{Type: store.TypeFailed, Job: "job-000001", Time: 200, Detail: "boom"},
		{Type: store.TypeSubmitted, Job: "job-000002", JobSeq: 2, Time: 300, Spec: specJSON(good)},
		{Type: store.TypeCanceled, Job: "job-000002", Time: 400, Detail: "operator"},
		{Type: store.TypeDispatched, Job: "job-000099", Time: 500}, // orphan: its submit was compacted away
		{Type: store.TypeSubmitted, Job: "job-000003", JobSeq: 3, Time: 600, Spec: specJSON(good)},
		{Type: store.TypeDispatched, Job: "job-000003", Time: 700},
		// references a spill that was never written: load fails, restart from 0
		{Type: store.TypeCheckpointed, Job: "job-000003", Time: 800, Updates: 500, DispatchSeq: 9},
		{Type: store.TypeSubmitted, Job: "job-000004", JobSeq: 4, Time: 900, Spec: specJSON(bogus)},
	} {
		if err := m.Append(rec); err != nil {
			t.Fatal(err)
		}
	}

	s := newScheduler(t, jobs.Config{Engines: 1, Store: m})
	st := s.Stats()
	if st.RecoveredJobs != 4 {
		t.Fatalf("recovered %d jobs, want 4 (orphan skipped)", st.RecoveredJobs)
	}
	if st.StoreErrors < 1 {
		t.Fatalf("store errors %d, want >=1 for the missing spill", st.StoreErrors)
	}
	if job, err := s.Status("job-000001"); err != nil || job.State != jobs.StateFailed || job.Err != "boom" {
		t.Fatalf("job-000001 %+v (err %v), want failed/boom", job, err)
	}
	if job, err := s.Status("job-000002"); err != nil || job.State != jobs.StateCanceled || job.Err != "operator" {
		t.Fatalf("job-000002 %+v (err %v), want canceled/operator", job, err)
	}
	if _, err := s.Status("job-000099"); err == nil {
		t.Fatal("orphan transition materialized a job")
	}
	if job, err := s.Status("job-000004"); err != nil || job.State != jobs.StateFailed || !strings.Contains(job.Err, "recovery:") {
		t.Fatalf("job-000004 %+v (err %v), want failed with a recovery-prefixed error", job, err)
	}
	// the job with the lost spill restarted from scratch and finishes
	if job := waitState(t, s, "job-000003", jobs.StateDone); job.Preemptions != 0 {
		t.Fatalf("restarted job carries %d preemptions, want 0", job.Preemptions)
	}
	// new submissions continue the recovered ID sequence
	id, err := s.Submit(good)
	if err != nil {
		t.Fatal(err)
	}
	if id != "job-000005" {
		t.Fatalf("post-recovery submit got %s, want job-000005", id)
	}
	waitState(t, s, id, jobs.StateDone)
}

// TestRecoveryResubmittedAfterLostAck: Submit reuses the job ID when its
// append fails, and a failed append may still have reached the disk — the
// log then holds two submitted records for one ID, and the second is the
// one the client was told about. Recovery must serve that one.
func TestRecoveryResubmittedAfterLostAck(t *testing.T) {
	m := openSole(t)
	lost := jobs.Spec{Algorithm: gateQueued.name, Dataset: jobs.DatasetSpec{Name: "rcv1-like"}, Updates: 31}
	acked := lost
	acked.Updates = 32
	for i, sp := range []jobs.Spec{lost, acked} {
		b, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Append(&store.Record{Type: store.TypeSubmitted, Job: "job-000001", JobSeq: 1, Time: int64(100 + i), Spec: b}); err != nil {
			t.Fatal(err)
		}
	}
	s := newScheduler(t, jobs.Config{Engines: 1, Store: m})
	if st := s.Stats(); st.RecoveredJobs != 1 {
		t.Fatalf("recovered %d jobs, want 1", st.RecoveredJobs)
	}
	expectStart(t, gateQueued, 32)
	release(t, gateQueued)
	waitState(t, s, "job-000001", jobs.StateDone)
}

// TestRecoveryFailsStoredGCGModes: submission once accepted gcg with a
// selection mode, and a bcd solver once existed, so a durable log may hold
// such jobs. gcg has no modes and bcd is gone now: the non-terminal ones —
// queued, and checkpointed mid-run — fail at boot with a recovery-prefixed
// detail instead of wedging the queue, the finished ones list as they were,
// the queue still serves, and the counters agree with the scrape.
func TestRecoveryFailsStoredGCGModes(t *testing.T) {
	m := openSole(t)
	spec := func(algo, mode string) []byte {
		b, err := json.Marshal(jobs.Spec{
			Algorithm: algo, Mode: mode,
			Dataset:   jobs.DatasetSpec{Name: "rcv1-like"},
			Step:      jobs.StepSpec{Kind: "const", A: 0.02},
			Objective: async.Objective{Loss: "least-squares", L2: 0.01, L1: 0.01},
			Updates:   20,
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for id, algo := range map[string]string{"job-000002": "gcg", "job-000005": "bcd"} {
		if err := m.SaveCheckpoint(id, 4, &opt.Checkpoint{Algorithm: algo, W: la.NewVec(8), Updates: 10}); err != nil {
			t.Fatal(err)
		}
	}
	for _, rec := range []*store.Record{
		{Type: store.TypeSubmitted, Job: "job-000001", JobSeq: 1, Time: 100, Spec: spec("gcg", "greedy")},
		{Type: store.TypeSubmitted, Job: "job-000002", JobSeq: 2, Time: 200, Spec: spec("gcg", "full")},
		{Type: store.TypeDispatched, Job: "job-000002", Time: 300},
		{Type: store.TypeCheckpointed, Job: "job-000002", Time: 400, Updates: 10, DispatchSeq: 4},
		{Type: store.TypeSubmitted, Job: "job-000003", JobSeq: 3, Time: 500, Spec: spec("gcg", "greedy")},
		{Type: store.TypeDispatched, Job: "job-000003", Time: 600},
		{Type: store.TypeDone, Job: "job-000003", Time: 700, Updates: 20, FinalError: 0.25, HasFinal: true},
		{Type: store.TypeSubmitted, Job: "job-000004", JobSeq: 4, Time: 800, Spec: spec("bcd", "")},
		{Type: store.TypeSubmitted, Job: "job-000005", JobSeq: 5, Time: 900, Spec: spec("bcd", "")},
		{Type: store.TypeDispatched, Job: "job-000005", Time: 1000},
		{Type: store.TypeCheckpointed, Job: "job-000005", Time: 1100, Updates: 10, DispatchSeq: 4},
		{Type: store.TypeSubmitted, Job: "job-000006", JobSeq: 6, Time: 1200, Spec: spec("bcd", "")},
		{Type: store.TypeDispatched, Job: "job-000006", Time: 1300},
		{Type: store.TypeDone, Job: "job-000006", Time: 1400, Updates: 20, FinalError: 0.5, HasFinal: true},
	} {
		if err := m.Append(rec); err != nil {
			t.Fatal(err)
		}
	}

	s := newScheduler(t, jobs.Config{Engines: 1, Store: m})
	if st := s.Stats(); st.RecoveredJobs != 6 {
		t.Fatalf("recovered %d jobs, want 6", st.RecoveredJobs)
	}
	for id, want := range map[jobs.ID]string{
		"job-000001": "no selection modes", "job-000002": "no selection modes",
		"job-000004": `unknown solver "bcd"`, "job-000005": `unknown solver "bcd"`,
	} {
		job, err := s.Status(id)
		if err != nil || job.State != jobs.StateFailed ||
			!strings.Contains(job.Err, "recovery:") || !strings.Contains(job.Err, want) {
			t.Fatalf("%s %+v (err %v), want failed with a recovery-prefixed %q", id, job, err, want)
		}
	}
	listed := map[jobs.ID]jobs.Job{}
	for _, j := range s.List() {
		listed[j.ID] = j
	}
	for id, want := range map[jobs.ID]struct {
		algo, mode string
		final      float64
	}{"job-000003": {"gcg", "greedy", 0.25}, "job-000006": {"bcd", "", 0.5}} {
		done, ok := listed[id]
		if !ok || done.State != jobs.StateDone || done.Updates != 20 || done.FinalError == nil || *done.FinalError != want.final ||
			done.Spec.Algorithm != want.algo || done.Spec.Mode != want.mode || done.Err != "" {
			t.Fatalf("finished %s job %s lists as %+v, want it as it was", want.algo, id, done)
		}
	}

	id, err := s.Submit(jobs.Spec{
		Algorithm: "cd", Mode: "greedy",
		Dataset:   jobs.DatasetSpec{Name: "rcv1-like"},
		Objective: async.Objective{Loss: "least-squares", L2: 0.01, L1: 0.01},
		Updates:   20,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, id, jobs.StateDone)
	assertStatsMatchScrape(t, s)
}
