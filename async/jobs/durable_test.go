package jobs_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/async"
	"repro/async/jobs"
	"repro/async/jobs/store"
	"repro/internal/la"
)

// dedicated controllable solvers for the durability tests (the registry is
// process-global, so instances are per-scenario to keep channels isolated)
var (
	gateDrainA = newPGate("pgate-drain-a")
	gateDrainB = newGate("gate-drain-b")
	gateProm   = newGate("gate-prom")
)

func init() {
	if err := async.Register(gateDrainA); err != nil {
		panic(err)
	}
	for _, g := range []*gate{gateDrainB, gateProm} {
		if err := async.Register(g); err != nil {
			panic(err)
		}
	}
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestCrashRecoveryResumeEquivalenceE2E is the durability acceptance test:
// a WAL-backed run is killed mid-flight (store failpoint = kill -9 at the
// store layer), a second scheduler recovers the directory, resumes the job
// from its last durable checkpoint, and the final model is bitwise
// identical to an uninterrupted run on the same seed.
func TestCrashRecoveryResumeEquivalenceE2E(t *testing.T) {
	spec := jobs.Spec{
		Algorithm:       "asgd",
		Dataset:         jobs.DatasetSpec{Name: "rcv1-like"},
		Step:            jobs.StepSpec{Kind: "const", A: 0.01},
		Updates:         1200,
		SnapshotEvery:   25,
		CheckpointEvery: 100,
	}
	engOpts := []async.Option{
		async.WithWorkers(1),
		async.WithPartitions(2),
		async.WithMinTaskTime(200 * time.Microsecond),
	}

	// reference: uninterrupted, no store
	sRef := newScheduler(t, jobs.Config{Engines: 1, EngineOptions: engOpts})
	refID, err := sRef.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, sRef, refID, jobs.StateDone)
	refRes, err := sRef.Result(refID)
	if err != nil || refRes == nil {
		t.Fatalf("reference result: %v", err)
	}
	wFull := refRes.W

	// crashed: WAL-backed, killed after the first durable checkpoint
	dir := t.TempDir()
	w1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := newScheduler(t, jobs.Config{Engines: 1, EngineOptions: engOpts, Store: w1})
	id, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "a durable checkpoint", func() bool {
		m := w1.Metrics()
		return m.CheckpointSpills >= 1 && m.Appends >= 3 // submitted+dispatched+checkpointed
	})
	w1.Kill() // every later store op fails: the log freezes at this instant
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// reboot: a fresh WAL handle on the same dir, a fresh scheduler
	w2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	s2 := newScheduler(t, jobs.Config{Engines: 1, EngineOptions: engOpts, Store: w2})
	st := s2.Stats()
	if st.RecoveredJobs != 1 {
		t.Fatalf("recovered %d jobs, want 1", st.RecoveredJobs)
	}
	if st.RecoveryMS <= 0 {
		t.Fatalf("recovery time not measured: %+v", st)
	}
	job, err := s2.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != jobs.StateDone {
		t.Fatalf("recovered job finished %s (err %q), want done", job.State, job.Err)
	}
	recRes, err := s2.Result(id)
	if err != nil || recRes == nil {
		t.Fatalf("recovered result: %v", err)
	}
	if !la.Equal(wFull, recRes.W, 0) {
		t.Fatal("crash-recovered model != uninterrupted model on a fixed seed")
	}
}

// TestGracefulDrainRestartNoWorkLost: Drain preempts the running job, its
// checkpoint lands durably, queued work stays queued, and a successor
// scheduler on the same directory resumes everything — the restart loses no
// submitted job and no checkpointed progress.
func TestGracefulDrainRestartNoWorkLost(t *testing.T) {
	dir := t.TempDir()
	w1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := newScheduler(t, jobs.Config{Engines: 1, Store: w1})
	runningID, err := s1.Submit(gateSpec2(gateDrainA.name, 71))
	if err != nil {
		t.Fatal(err)
	}
	expectStartTag(t, gateDrainA.starts, 71)
	queuedID, err := s1.Submit(gateSpec(gateDrainB, 72))
	if err != nil {
		t.Fatal(err)
	}

	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	if err := s1.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// drained: the preempted checkpoint is on disk, nothing was finalized
	if m := w1.Metrics(); m.CheckpointSpills < 1 {
		t.Fatalf("drain spilled no checkpoint: %+v", m)
	}
	if job, err := s1.Status(runningID); err != nil || job.State != jobs.StatePreempted {
		t.Fatalf("running job after drain: %+v (err %v), want preempted", job, err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s1.Drain(dctx); err == nil {
		t.Fatal("drain after close succeeded, want error")
	}
	w1.Close()

	// restart: both jobs come back — the preempted one resumes from its
	// checkpoint, the queued one runs after it
	w2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	s2 := newScheduler(t, jobs.Config{Engines: 1, Store: w2})
	if st := s2.Stats(); st.RecoveredJobs != 2 {
		t.Fatalf("recovered %d jobs, want 2", st.RecoveredJobs)
	}
	expectResume(t, gateDrainA, 71) // resumed from the drained checkpoint
	releasePG(t, gateDrainA)
	waitState(t, s2, runningID, jobs.StateDone)
	expectStart(t, gateDrainB, 72)
	release(t, gateDrainB)
	waitState(t, s2, queuedID, jobs.StateDone)
}

// TestSoleOwnerCompactionFollowsRetention pins the one thing a sole-owner
// handle does differently from a replica's: its Compact installs the
// scheduler's snapshot, so Config.Retention — not the store's own 256-job
// terminal bound a replica compacts itself to — decides what leaves the log.
// 300 finished jobs under Retention 400 must all survive many compactions
// and a restart, in submission order.
func TestSoleOwnerCompactionFollowsRetention(t *testing.T) {
	const n = 300
	cfg := jobs.Config{
		Engines: 2, Retention: 400, CompactEvery: 64,
		EngineOptions: []async.Option{async.WithWorkers(1), async.WithPartitions(2)},
	}
	dir := t.TempDir()
	w1, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = w1
	s1 := newScheduler(t, cfg)
	ids := make([]jobs.ID, n)
	for i := range ids {
		ids[i], err = s1.Submit(jobs.Spec{
			Algorithm: "asgd",
			Dataset:   jobs.DatasetSpec{Name: "rcv1-like"},
			Step:      jobs.StepSpec{Kind: "const", A: 0.01},
			Updates:   5,
		})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s1, ids[i], jobs.StateDone)
	}
	if m := w1.Metrics(); m.Compactions < 10 {
		t.Fatalf("%d compactions over %d jobs, want the scheduler compacting every 64 appends", m.Compactions, n)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	w1.Close()

	w2, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	cfg.Store = w2
	list := newScheduler(t, cfg).List()
	if len(list) != n {
		t.Fatalf("restart lists %d jobs, want all %d (a handle compacting itself keeps 256)", len(list), n)
	}
	for i, j := range list {
		if j.ID != ids[i] || j.State != jobs.StateDone {
			t.Fatalf("job %d after restart: %s %s, want %s done", i, j.ID, j.State, ids[i])
		}
	}
}

// TestPrometheusMetricsScrape pins the /v1/metrics exposition: Prometheus
// text content type, serving counters, WAL counters, tenant labels; /v1/stats
// keeps the JSON Stats shape.
func TestPrometheusMetricsScrape(t *testing.T) {
	dir := t.TempDir()
	w, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s := newScheduler(t, jobs.Config{Engines: 1, Store: w})
	srv := httptest.NewServer(jobs.NewHandler(s))
	defer srv.Close()

	spec := gateSpec(gateProm, 81)
	spec.Tenant = "acme"
	id := postJob(t, srv.URL, spec)
	expectStart(t, gateProm, 81)
	release(t, gateProm)
	waitState(t, s, id, jobs.StateDone)

	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q, want text/plain exposition", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"# TYPE asyncd_jobs_submitted_total counter",
		"asyncd_jobs_submitted_total 1",
		"asyncd_jobs_done_total 1",
		"asyncd_wal_appends_total",
		"asyncd_wal_fsync_seconds_count",
		"asyncd_wal_size_bytes",
		`asyncd_tenant_jobs_submitted_total{tenant="acme"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics body missing %q:\n%s", want, body)
		}
	}
}
