package jobs_test

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/async/jobs"
	"repro/async/jobs/store"
)

// TestRecoveryEdgeCases replays a hand-built log through a Mem-backed
// scheduler (the store is a seam — recovery must not care which
// implementation is underneath): terminal jobs land in retention with their
// detail, orphan transitions are skipped, a checkpointed record whose spill
// is missing restarts the job from scratch, and a spec that no longer
// normalizes fails loudly instead of wedging the queue.
func TestRecoveryEdgeCases(t *testing.T) {
	m := store.NewMem()
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
	m := store.NewMem()
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
