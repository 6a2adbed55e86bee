package jobs

import "repro/async/jobs/store"

// Test seams for the external test package: the fold property test drives
// the one commit path and reads the folds the scheduler holds.

// HoldDispatchForTest stops the scheduler from dispatching, so submitted
// jobs stay put while a test commits records for them by hand.
func (s *Scheduler) HoldDispatchForTest() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.draining = true
}

// CommitForTest runs one record through commitLocked, the live path's
// single entry point.
func (s *Scheduler) CommitForTest(rec *store.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commitLocked(s.jobs[ID(rec.Job)], rec)
}

// FoldsForTest copies the lifecycle fold of every job the scheduler holds.
func (s *Scheduler) FoldsForTest() map[string]store.JobState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]store.JobState, len(s.jobs))
	for id, j := range s.jobs {
		out[string(id)] = j.JobState
	}
	return out
}

// SnapshotForTest is the compaction snapshot the scheduler would write.
func (s *Scheduler) SnapshotForTest() []*store.Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotRecordsLocked()
}

// ReplayFoldsForTest folds st's log the way boot recovery does — through
// replayLocked on a scheduler that serves nothing — and returns the folds.
func ReplayFoldsForTest(st store.Store) (map[string]store.JobState, error) {
	s := &Scheduler{cfg: Config{Store: st}, jobs: map[ID]*job{}}
	if _, err := s.replayLocked(); err != nil {
		return nil, err
	}
	return s.FoldsForTest(), nil
}
