package jobs_test

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/async/jobs"
	"repro/async/jobs/store"
)

// idSeq parses the submission ordinal out of a job ID ("job-%06d" or the
// replica-qualified "job-<replica>-%06d"), mirroring the cursor's parse.
func idSeq(t *testing.T, id jobs.ID) int64 {
	t.Helper()
	i := strings.LastIndexByte(string(id), '-')
	n, err := strconv.ParseInt(string(id)[i+1:], 10, 64)
	if err != nil {
		t.Fatalf("unparseable job ID %q: %v", id, err)
	}
	return n
}

// TestListPageCrossReplicaTies: imported remote jobs keep their home
// replica's submission ordinal, so jobs from different replicas tie on
// seq. Pagination must walk the full (seq, id) order — a cursor comparing
// the bare ordinal strictly-greater would skip or duplicate entries at
// ties.
func TestListPageCrossReplicaTies(t *testing.T) {
	dir := t.TempDir()
	cfgA := replicaConfig(openReplica(t, dir, "a", store.SharedOptions{}), "a")
	cfgA.EngineOptions = chaosEngOpts
	cfgB := replicaConfig(openReplica(t, dir, "b", store.SharedOptions{}), "b")
	cfgB.EngineOptions = chaosEngOpts
	sA := newScheduler(t, cfgA)
	sB := newScheduler(t, cfgB)

	const perReplica = 3
	want := map[jobs.ID]bool{}
	for i := 0; i < perReplica; i++ {
		ida, err := sA.Submit(asgdSpec(200))
		if err != nil {
			t.Fatal(err)
		}
		idb, err := sB.Submit(asgdSpec(200))
		if err != nil {
			t.Fatal(err)
		}
		want[ida], want[idb] = true, true
	}
	waitFor(t, 30*time.Second, "both replicas see all submissions", func() bool {
		return len(sA.List()) == 2*perReplica && len(sB.List()) == 2*perReplica
	})

	for _, s := range []*jobs.Scheduler{sA, sB} {
		got := map[jobs.ID]bool{}
		var prev jobs.Job
		var cursor jobs.ID
		for {
			page, next := s.ListPage(jobs.ListQuery{After: cursor, Limit: 1})
			if len(page) == 0 {
				break
			}
			j := page[0]
			if got[j.ID] {
				t.Fatalf("job %s paginated twice (cursor %q)", j.ID, cursor)
			}
			if !want[j.ID] {
				t.Fatalf("unexpected job %s in listing", j.ID)
			}
			got[j.ID] = true
			seq, prevSeq := idSeq(t, j.ID), int64(-1)
			if prev.ID != "" {
				prevSeq = idSeq(t, prev.ID)
			}
			if prev.ID != "" && (seq < prevSeq || (seq == prevSeq && j.ID <= prev.ID)) {
				t.Fatalf("pagination order broken: %s (seq %d) after %s (seq %d)",
					j.ID, seq, prev.ID, prevSeq)
			}
			prev = j
			if next == "" {
				if len(got) != len(want) {
					t.Fatalf("cursor exhausted after %d jobs, want %d", len(got), len(want))
				}
				break
			}
			cursor = next
		}
		if len(got) != len(want) {
			t.Fatalf("pagination visited %d of %d jobs (ties skipped)", len(got), len(want))
		}
	}
}

// TestReplicaModeNeedsAStore: replicas coordinate through the store's lease
// surface, so New refuses a ReplicaID without a Store.
func TestReplicaModeNeedsAStore(t *testing.T) {
	if _, err := jobs.New(jobs.Config{ReplicaID: "a"}); err == nil || !strings.Contains(err.Error(), "needs a store") {
		t.Fatalf("replica mode without a store: %v, want a refusal", err)
	}
}
