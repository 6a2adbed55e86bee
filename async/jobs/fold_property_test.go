package jobs_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/async/jobs"
	"repro/async/jobs/store"
)

// jobModel is the test's own account of one job, kept by hand beside the
// history it generates — it shares no code with the fold it checks.
type jobModel struct {
	phase       store.Phase
	updates     int64
	hasCp       bool
	cpSeq, cpUp int64
	preemptions int
	detail      string
	hasFinal    bool
	finalErr    float64
}

// foldRecords folds a record stream into per-job states.
func foldRecords(recs []store.Record) map[string]store.JobState {
	out := map[string]store.JobState{}
	for i := range recs {
		s := out[recs[i].Job]
		s.Apply(&recs[i])
		out[recs[i].Job] = s
	}
	delete(out, "")
	for job, s := range out {
		if s.Phase == store.PhaseNone {
			delete(out, job)
		}
	}
	return out
}

func replayed(t *testing.T, st store.Store) []store.Record {
	t.Helper()
	var recs []store.Record
	if err := st.Replay(func(r store.Record) error { recs = append(recs, r); return nil }); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestFoldAgreesAcrossReaders is the seeded property test of the lifecycle
// fold: a random legal history for a handful of jobs goes through the
// scheduler's one commit path over a sole-owner WAL, and every reader of the
// resulting log must tell the same story — the live fold, the test's
// hand-kept model, boot replay, the scheduler's compaction snapshot
// (directly and installed by the WAL's Compact), and a replica handle's
// self-compaction — and compacting twice must change nothing. Seeded by
// CHAOS_SEED; a failure prints the seed.
func TestFoldAgreesAcrossReaders(t *testing.T) {
	seed := chaosSeed()
	rng := rand.New(rand.NewSource(seed))
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("CHAOS_SEED=%d: %s", seed, fmt.Sprintf(format, args...))
	}

	wal := openSole(t)
	s := newScheduler(t, jobs.Config{Engines: 1, Store: wal, CompactEvery: 1 << 30, QueueDepth: 64})
	s.HoldDispatchForTest()
	models := map[string]*jobModel{}
	var ids []string
	for i := 0; i < 8; i++ {
		id, err := s.Submit(jobs.Spec{Algorithm: "asgd", Dataset: jobs.DatasetSpec{Name: "rcv1-like"}, Updates: 1000, Priority: rng.Intn(3)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, string(id))
		models[string(id)] = &jobModel{phase: store.PhaseQueued}
	}

	commit := func(rec *store.Record) {
		t.Helper()
		if err := s.CommitForTest(rec); err != nil {
			fail("commit %s on %s: %v", rec.Type, rec.Job, err)
		}
	}
	for step := 0; step < 120; step++ {
		id := ids[rng.Intn(len(ids))]
		m := models[id]
		if m.phase.Terminal() {
			continue
		}
		clock := m.updates + int64(rng.Intn(200))
		spill := func(typ store.Type) {
			m.hasCp, m.cpSeq, m.cpUp = true, int64(rng.Intn(50)), clock
			m.updates = clock
			commit(&store.Record{Type: typ, Job: id, Updates: m.cpUp, DispatchSeq: m.cpSeq})
		}
		end := func(typ store.Type, phase store.Phase) {
			m.phase, m.hasCp, m.cpSeq, m.cpUp = phase, false, 0, 0
			rec := &store.Record{Type: typ, Job: id}
			if typ == store.TypeDone {
				m.updates, m.hasFinal, m.finalErr = clock, true, rng.Float64()
				rec.Updates, rec.HasFinal, rec.FinalError = clock, true, m.finalErr
			} else {
				m.detail = fmt.Sprintf("ended at step %d", step)
				rec.Detail = m.detail
			}
			commit(rec)
		}
		switch roll := rng.Intn(10); {
		case m.phase != store.PhaseRunning && roll < 8, m.phase == store.PhaseRunning && roll == 0:
			// dispatch; a running job re-dispatches after a crash or a retry
			m.phase = store.PhaseRunning
			commit(&store.Record{Type: store.TypeDispatched, Job: id, Updates: m.updates})
		case m.phase != store.PhaseRunning:
			end(store.TypeCanceled, store.PhaseCanceled) // canceled while waiting
		case roll < 4:
			spill(store.TypeCheckpointed)
		case roll < 6:
			m.phase = store.PhasePreempted
			m.preemptions++
			spill(store.TypePreempted)
		case roll < 8:
			end(store.TypeDone, store.PhaseDone)
		case roll == 8:
			end(store.TypeFailed, store.PhaseFailed)
		default:
			end(store.TypeCanceled, store.PhaseCanceled)
		}
	}

	// live fold == the hand-kept model
	live := s.FoldsForTest()
	if len(live) != len(ids) {
		fail("scheduler holds %d jobs, want %d", len(live), len(ids))
	}
	for id, m := range models {
		got := live[id]
		gotModel := jobModel{
			phase: got.Phase, updates: got.Updates, hasCp: got.HasCp, cpSeq: got.CpSeq, cpUp: got.CpUpdates,
			preemptions: got.Preemptions, detail: got.Detail, hasFinal: got.HasFinal, finalErr: got.FinalError,
		}
		if gotModel != *m {
			fail("job %s: live fold %+v, model %+v", id, gotModel, *m)
		}
	}
	agree := func(reader string, got map[string]store.JobState) {
		t.Helper()
		if !reflect.DeepEqual(got, live) {
			for id := range live {
				if !reflect.DeepEqual(got[id], live[id]) {
					fail("%s disagrees on %s:\n got %+v\nlive %+v", reader, id, got[id], live[id])
				}
			}
			fail("%s holds %d jobs, live %d", reader, len(got), len(live))
		}
	}

	// boot replay reads the log back from disk, as a restarted process
	// would: a copy of wal.log recovered by a fresh sole owner
	bootReplay := func() map[string]store.JobState {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(wal.Dir(), "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := store.Open(dir, store.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		folds, err := jobs.ReplayFoldsForTest(w)
		if err != nil {
			t.Fatal(err)
		}
		return folds
	}

	// boot replay of the raw log
	log := replayed(t, wal)
	agree("boot replay", bootReplay())

	// a finished job refuses further records at the log
	for id, m := range models {
		if m.phase.Terminal() {
			err := wal.Append(&store.Record{Type: store.TypeDispatched, Job: id})
			if !errors.Is(err, store.ErrFenced) {
				fail("dispatch of finished job %s: %v, want ErrFenced", id, err)
			}
		}
	}

	// the scheduler's compaction snapshot, and its snapshot again
	snap := s.SnapshotForTest()
	values := func(recs []*store.Record) []store.Record {
		out := make([]store.Record, len(recs))
		for i, r := range recs {
			out[i] = *r
		}
		return out
	}
	snapFolds := foldRecords(values(snap))
	agree("compaction snapshot", snapFolds)
	var again []*store.Record
	for _, id := range ids { // ids are in submission order, as the snapshot is
		st := snapFolds[id]
		again = append(again, st.Records(id)...)
	}
	if !reflect.DeepEqual(values(again), values(snap)) {
		fail("compacting the compaction snapshot changed it:\n got %v\nwant %v", values(again), values(snap))
	}
	if err := wal.Compact(snap); err != nil {
		t.Fatal(err)
	}
	agree("boot replay of the compacted log", bootReplay())

	// a replica handle's self-compaction of the same raw log, once and twice
	sh, err := store.OpenShared(t.TempDir(), "a", store.SharedOptions{NoSync: true, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	for i := range log {
		if err := sh.Append(&log[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.Compact(nil); err != nil {
		t.Fatal(err)
	}
	once := replayed(t, sh)
	agree("replica self-compaction", foldRecords(once))
	if err := sh.Compact(nil); err != nil {
		t.Fatal(err)
	}
	if twice := replayed(t, sh); !reflect.DeepEqual(twice, once) {
		fail("a replica compacting twice changed the log:\n got %v\nwant %v", twice, once)
	}
}
