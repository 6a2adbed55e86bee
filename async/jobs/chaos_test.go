package jobs_test

import (
	"context"
	"errors"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/async"
	"repro/async/jobs"
	"repro/async/jobs/store"
	"repro/async/jobs/store/faulty"
	"repro/internal/la"
)

// The chaos suite is deterministic: fault plans fire at exact operation
// ordinals, and the probabilistic plans draw from CHAOS_SEED (default 1),
// so a failing run replays from its seed. CI runs the suite under -race
// across a fixed seed matrix.

func chaosSeed() int64 {
	if v := os.Getenv("CHAOS_SEED"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return 1
}

var gateChaos = newGate("gate-chaos")

func init() {
	if err := async.Register(gateChaos); err != nil {
		panic(err)
	}
}

// replicaConfig builds a replica-mode scheduler config with chaos-friendly
// lease timing: short enough that failover happens in test time, long
// enough that a healthy replica never self-fences under -race scheduling.
func replicaConfig(st store.Store, replica string) jobs.Config {
	return jobs.Config{
		Engines:        1,
		Store:          st,
		ReplicaID:      replica,
		LeaseTTL:       400 * time.Millisecond,
		RenewEvery:     80 * time.Millisecond,
		AdoptScanEvery: 80 * time.Millisecond,
	}
}

// openSole opens a sole-owner WAL on a fresh directory. It closes when the
// test ends, after any scheduler built over it (cleanups run last-in
// first-out).
func openSole(t *testing.T) *store.WAL {
	t.Helper()
	w, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// openReplica opens the named replica handle on dir, closed like openSole's.
func openReplica(t *testing.T, dir, name string, opts store.SharedOptions) *store.WAL {
	t.Helper()
	opts.NoSync = true
	w, err := store.OpenShared(dir, name, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// verifyLog replays the shared log and enforces the cluster-wide safety
// invariants: claim epochs strictly increase per job, no job in the log has
// more than one terminal record, and the job under test has exactly one
// terminal Done record. Returns that record.
func verifyLog(t *testing.T, replay func(func(store.Record) error) error, id jobs.ID) store.Record {
	t.Helper()
	lastEpoch := map[string]int64{}
	var done []store.Record
	err := replay(func(r store.Record) error {
		if r.Type == store.TypeClaimed {
			if r.Epoch <= lastEpoch[r.Job] {
				t.Fatalf("claim epoch %d on %s after epoch %d: not strictly increasing", r.Epoch, r.Job, lastEpoch[r.Job])
			}
			lastEpoch[r.Job] = r.Epoch
		}
		if r.Type == store.TypeDone && r.Job == string(id) {
			done = append(done, r)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	verifyTerminalOnce(t, replay)
	if len(done) != 1 {
		t.Fatalf("job %s has %d Done records, want exactly 1 (double run)", id, len(done))
	}
	return done[0]
}

// verifyTerminalOnce asserts that every job in the log reached at most one
// terminal state.
func verifyTerminalOnce(t *testing.T, replay func(func(store.Record) error) error) {
	t.Helper()
	terminal := map[string][]store.Type{}
	if err := replay(func(r store.Record) error {
		if r.Type.Terminal() {
			terminal[r.Job] = append(terminal[r.Job], r.Type)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for job, types := range terminal {
		if len(types) > 1 {
			t.Fatalf("job %s has terminal records %v, want at most one", job, types)
		}
	}
}

// asgdSpec is the real-solver workload the failover tests run: long enough
// to spill checkpoints, deterministic on a fixed dataset seed.
func asgdSpec(updates int) jobs.Spec {
	return jobs.Spec{
		Algorithm:       "asgd",
		Dataset:         jobs.DatasetSpec{Name: "rcv1-like"},
		Step:            jobs.StepSpec{Kind: "const", A: 0.01},
		Updates:         updates,
		SnapshotEvery:   25,
		CheckpointEvery: 100,
	}
}

var chaosEngOpts = []async.Option{
	async.WithWorkers(1),
	async.WithPartitions(2),
	async.WithMinTaskTime(200 * time.Microsecond),
}

// TestChaosKillReplicaFailoverE2E is the failover acceptance test: replica
// A runs a real solve over a shared directory and is killed mid-run
// (scheduler and store handle die without releasing anything); replica B
// adopts the orphan after lease expiry, resumes from A's last durable
// checkpoint, and finishes with the update budget intact — the final model
// is bitwise identical to an uninterrupted run on the same seed.
func TestChaosKillReplicaFailoverE2E(t *testing.T) {
	spec := asgdSpec(1200)

	// reference: uninterrupted, no store
	sRef := newScheduler(t, jobs.Config{Engines: 1, EngineOptions: chaosEngOpts})
	refID, err := sRef.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, sRef, refID, jobs.StateDone)
	refRes, err := sRef.Result(refID)
	if err != nil || refRes == nil {
		t.Fatalf("reference result: %v", err)
	}

	dir := t.TempDir()
	shA, err := store.OpenShared(dir, "a", store.SharedOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	cfgA := replicaConfig(shA, "a")
	cfgA.EngineOptions = chaosEngOpts
	sA := newScheduler(t, cfgA)
	id, err := sA.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "a durable checkpoint on replica a", func() bool {
		return shA.Metrics().CheckpointSpills >= 1
	})
	sA.Kill() // crash: nothing finalized, nothing released, lease still live
	shA.Kill()

	shB, err := store.OpenShared(dir, "b", store.SharedOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer shB.Close()
	cfgB := replicaConfig(shB, "b")
	cfgB.EngineOptions = chaosEngOpts
	sB := newScheduler(t, cfgB)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	job, err := sB.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait on survivor: %v", err)
	}
	if job.State != jobs.StateDone {
		t.Fatalf("failed-over job finished %s (err %q), want done", job.State, job.Err)
	}
	if job.Updates != int64(spec.Updates) {
		t.Fatalf("failed-over job ran %d updates, want the full budget %d", job.Updates, spec.Updates)
	}
	recRes, err := sB.Result(id)
	if err != nil || recRes == nil {
		t.Fatalf("survivor result: %v", err)
	}
	if !la.Equal(refRes.W, recRes.W, 0) {
		t.Fatal("failed-over model != uninterrupted model on a fixed seed")
	}
	st := sB.Stats()
	if st.Adopted < 1 {
		t.Fatalf("survivor adopted %d jobs, want >= 1", st.Adopted)
	}
	if st.FailoverMS <= 0 {
		t.Fatalf("failover latency not measured: %+v", st)
	}

	done := verifyLog(t, shB.Replay, id)
	if done.Updates != int64(spec.Updates) {
		t.Fatalf("Done record logs %d updates, want %d", done.Updates, spec.Updates)
	}
	if done.Owner != "b" {
		t.Fatalf("Done record owned by %q, want the survivor b", done.Owner)
	}
}

// TestChaosPartitionFencedE2E: a replica partitioned from the store (every
// store operation frozen) loses its lease; a second replica adopts and
// finishes the job. When the partition heals, the stale owner is fenced —
// its run is abandoned, its epoch rejects appends — and exactly one Done
// record lands in the log.
func TestChaosPartitionFencedE2E(t *testing.T) { partitionStory(t, 0, 901) }

// TestChaosPartitionAcrossCompactionE2E tells the same story with both
// handles compacting themselves every 8 appends, and makes the adopter
// compact while the stale owner is paused: when the partition heals, the
// stale owner's handle finds wal.log renamed over the file it holds and
// re-reads the rewritten log from the top — and must still be fenced.
func TestChaosPartitionAcrossCompactionE2E(t *testing.T) { partitionStory(t, 8, 902) }

// partitionStory partitions the replica running the job tagged tag, lets
// its peer adopt it, heals the partition and checks the stale owner was
// fenced. Both replica handles self-compact every compactEvery appends
// (SharedOptions.CompactEvery); with a positive value the adopter is made
// to compact during the partition.
func partitionStory(t *testing.T, compactEvery, tag int) {
	dir := t.TempDir()
	opts := store.SharedOptions{CompactEvery: compactEvery}
	shA := openReplica(t, dir, "a", opts)
	shB := openReplica(t, dir, "b", opts)
	fA := faulty.Wrap(shA, faulty.Plan{Seed: chaosSeed()})
	sA := newScheduler(t, replicaConfig(fA, "a"))
	t.Cleanup(fA.Resume) // runs before sA closes, so a failure cannot wedge it
	sB := newScheduler(t, replicaConfig(shB, "b"))

	id, err := sA.Submit(gateSpec(gateChaos, tag))
	if err != nil {
		t.Fatal(err)
	}
	expectStart(t, gateChaos, tag) // a runs it

	fA.Pause() // partition: a cannot renew, append, or even observe the log
	compacted := shB.Metrics().Compactions
	// b imports the submission from the tail, sees the lease expire, adopts
	expectStart(t, gateChaos, tag) // the adopted re-dispatch on b
	waitFor(t, 10*time.Second, "adoption counted on b", func() bool {
		return sB.Stats().Adopted >= 1
	})
	if compactEvery > 0 {
		// b's claim, dispatch and renewals count toward its threshold, but
		// only a lifecycle append checks it: a submission (canceled before
		// it can run) swaps the log's inode under a
		waitFor(t, 10*time.Second, "the compaction threshold on b", func() bool {
			return shB.Metrics().AppendsSinceCompact >= int64(compactEvery)
		})
		extra, err := sB.Submit(gateSpec(gateChaos, tag+1))
		if err != nil {
			t.Fatal(err)
		}
		if m := shB.Metrics(); m.Compactions <= compacted {
			t.Fatalf("no self-compaction on b during the partition: %+v", m)
		}
		if err := sB.Cancel(extra); err != nil {
			t.Fatal(err)
		}
	}

	fA.Resume() // heal: a's next heartbeat learns it was fenced
	waitFor(t, 10*time.Second, "stale owner fenced on a", func() bool {
		return sA.Stats().Fenced >= 1
	})
	// the stale epoch is dead: post-expiry appends are rejected
	err = shA.Append(&store.Record{Type: store.TypeDone, Job: string(id), Owner: "a", Epoch: 1})
	if !errors.Is(err, store.ErrFenced) {
		t.Fatalf("stale-owner append: %v, want ErrFenced", err)
	}

	release(t, gateChaos) // only b's run still holds the gate
	job := waitState(t, sB, id, jobs.StateDone)
	if job.Updates != int64(tag) {
		t.Fatalf("adopted run logged %d updates, want %d", job.Updates, tag)
	}
	verifyLog(t, shB.Replay, id)

	// the healed replica mirrors the adopter's terminal record
	waitFor(t, 10*time.Second, "terminal mirror on a", func() bool {
		j, err := sA.Status(id)
		return err == nil && j.State == jobs.StateDone
	})
	if m := shA.Metrics(); m.FencedAppends < 1 {
		t.Fatalf("no fenced operations counted: %+v", m)
	}
	assertStatsMatchScrape(t, sA) // the fenced side
	assertStatsMatchScrape(t, sB) // the adopter
}

// TestChaosCrashRecoverLoopE2E kills and replaces the owning replica twice
// mid-run over one shared directory; a final replica finishes the job. The
// log must show exactly one Done record carrying the full update budget and
// strictly increasing claim epochs — the crash/recover loop never
// double-ran the job.
func TestChaosCrashRecoverLoopE2E(t *testing.T) {
	spec := asgdSpec(1500)
	dir := t.TempDir()

	var id jobs.ID
	for i := 0; i < 2; i++ {
		name := "r" + strconv.Itoa(i)
		sh, err := store.OpenShared(dir, name, store.SharedOptions{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		cfg := replicaConfig(sh, name)
		cfg.EngineOptions = chaosEngOpts
		s := newScheduler(t, cfg)
		if i == 0 {
			if id, err = s.Submit(spec); err != nil {
				t.Fatal(err)
			}
		}
		// run until this incarnation has banked progress of its own
		waitFor(t, 60*time.Second, "a checkpoint spill on "+name, func() bool {
			return sh.Metrics().CheckpointSpills >= 1
		})
		s.Kill()
		sh.Kill()
	}

	shF, err := store.OpenShared(dir, "final", store.SharedOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer shF.Close()
	cfg := replicaConfig(shF, "final")
	cfg.EngineOptions = chaosEngOpts
	sF := newScheduler(t, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	job, err := sF.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait on final replica: %v", err)
	}
	if job.State != jobs.StateDone {
		t.Fatalf("job finished %s (err %q) after crash loop, want done", job.State, job.Err)
	}
	done := verifyLog(t, shF.Replay, id)
	if done.Updates != int64(spec.Updates) {
		t.Fatalf("Done record logs %d updates, want the full budget %d", done.Updates, spec.Updates)
	}
}

// TestChaosSeededAppendFaults soaks the degraded-store path: every append
// fails independently with probability 0.2 (drawn from CHAOS_SEED), Submit
// surfaces ErrStoreUnavailable — the client retries — and every accepted
// job still finishes: append failures degrade durability, never liveness.
func TestChaosSeededAppendFaults(t *testing.T) {
	f := faulty.Wrap(openSole(t), faulty.Plan{Seed: chaosSeed(), AppendFailProb: 0.2})
	cfg := jobs.Config{Engines: 1, Store: f, EngineOptions: chaosEngOpts}
	s := newScheduler(t, cfg)

	spec := asgdSpec(60)
	spec.CheckpointEvery = 0
	var ids []jobs.ID
	for i := 0; i < 6; i++ {
		var id jobs.ID
		var err error
		for attempt := 0; attempt < 50; attempt++ {
			id, err = s.Submit(spec)
			if !errors.Is(err, jobs.ErrStoreUnavailable) {
				break
			}
		}
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		waitState(t, s, id, jobs.StateDone)
	}
	if st := s.Stats(); st.Done != int64(len(ids)) {
		t.Fatalf("done %d of %d accepted jobs", st.Done, len(ids))
	}
	if f.Injected() == 0 {
		t.Skip("seed injected no faults; rerun with a different CHAOS_SEED")
	}
}
