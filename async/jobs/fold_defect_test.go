package jobs_test

import (
	"errors"
	"testing"
	"time"

	"repro/async"
	"repro/async/jobs"
	"repro/async/jobs/store"
)

var (
	defectSolver = &scripted{name: "scripted-defect", starts: make(chan int64, 8), cmds: make(chan scriptCmd)}
	gateHoldA    = newGate("gate-hold-a")
	gateHoldB    = newGate("gate-hold-b")
	gateContest  = newGate("gate-contest")
)

func init() {
	if err := async.Register(defectSolver); err != nil {
		panic(err)
	}
	for _, g := range []*gate{gateHoldA, gateHoldB, gateContest} {
		if err := async.Register(g); err != nil {
			panic(err)
		}
	}
}

// TestFencedCancelIsNotApplied: a record the log refuses must not be applied
// locally. Replica a holds J queued and has not tail-scanned; replica b
// claims and runs it. a.Cancel(J) is fenced at the log, so a must report
// the job remote — not go terminal, not delete b's spill files.
func TestFencedCancelIsNotApplied(t *testing.T) {
	dir := t.TempDir()
	shA := openReplica(t, dir, "a", store.SharedOptions{})
	shB := openReplica(t, dir, "b", store.SharedOptions{})
	cfgA := replicaConfig(shA, "a")
	cfgA.AdoptScanEvery = time.Hour
	sA := newScheduler(t, cfgA)
	sB := newScheduler(t, replicaConfig(shB, "b"))

	if _, err := sA.Submit(gateSpec(gateHoldA, 11)); err != nil {
		t.Fatal(err)
	}
	expectStart(t, gateHoldA, 11) // a's only engine is held
	spec := gateSpec(gateHoldA, 12)
	spec.Algorithm = defectSolver.name
	id, err := sA.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// b imports J from the tail, claims it and runs it to a durable spill
	select {
	case <-defectSolver.starts:
	case <-time.After(10 * time.Second):
		t.Fatal("replica b never started the job")
	}
	select {
	case defectSolver.cmds <- scriptCmd{kind: "checkpoint", seq: 7, updates: 40}:
	case <-time.After(10 * time.Second):
		t.Fatal("run took no checkpoint command")
	}
	waitFor(t, 10*time.Second, "b's spill", func() bool { return shB.Metrics().CheckpointSpills >= 1 })

	if err := sA.Cancel(id); !errors.Is(err, jobs.ErrRemoteJob) {
		t.Fatalf("cancel of a job another replica runs: %v, want ErrRemoteJob", err)
	}
	job, err := sA.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if job.State.Terminal() || !job.Remote {
		t.Fatalf("a's copy after the refused cancel: state %s remote %v, want a live remote mirror", job.State, job.Remote)
	}
	if st := sA.Stats(); st.Fenced < 1 {
		t.Fatalf("fenced %d, want the refused append counted", st.Fenced)
	}
	if _, err := shA.LoadCheckpoint(string(id), 7); err != nil {
		t.Fatalf("b's spill after a's refused cancel: %v", err)
	}

	select {
	case defectSolver.cmds <- scriptCmd{kind: "done"}:
	case <-time.After(10 * time.Second):
		t.Fatal("run took no done command")
	}
	waitState(t, sB, id, jobs.StateDone)
	release(t, gateHoldA)
	verifyLog(t, shA.Replay, id)
}

// TestTerminalJobRefusesClaim: a finished job never runs again. a cancels
// queued J while b still holds an imported queued copy; b's engine frees
// before b's next tail scan, so b tries to claim J — the log refuses, b
// drops its copy, and the next scan mirrors the one terminal record.
func TestTerminalJobRefusesClaim(t *testing.T) {
	dir := t.TempDir()
	shA := openReplica(t, dir, "a", store.SharedOptions{})
	sA := newScheduler(t, replicaConfig(shA, "a"))
	cfgB := replicaConfig(openReplica(t, dir, "b", store.SharedOptions{}), "b")
	cfgB.AdoptScanEvery = time.Second
	sB := newScheduler(t, cfgB)

	if _, err := sA.Submit(gateSpec(gateHoldA, 21)); err != nil {
		t.Fatal(err)
	}
	expectStart(t, gateHoldA, 21)
	if _, err := sB.Submit(gateSpec(gateHoldB, 22)); err != nil {
		t.Fatal(err)
	}
	expectStart(t, gateHoldB, 22)

	id, err := sA.Submit(gateSpec(gateContest, 23))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "b to import the job", func() bool {
		_, err := sB.Status(id)
		return err == nil
	})
	if err := sA.Cancel(id); err != nil {
		t.Fatal(err)
	}
	release(t, gateHoldB) // b's engine frees and reaches for its queued copy

	waitFor(t, 10*time.Second, "b to mirror the cancel", func() bool {
		j, err := sB.Status(id)
		return err == nil && j.State == jobs.StateCanceled
	})
	select {
	case tag := <-gateContest.starts:
		t.Fatalf("canceled job ran again (tag %d)", tag)
	default:
	}
	if err := shA.Replay(func(r store.Record) error {
		if r.Job == string(id) && r.Type == store.TypeClaimed {
			t.Fatalf("claim on a canceled job was accepted: %+v", r)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	release(t, gateHoldA)
	verifyTerminalOnce(t, shA.Replay)
}
