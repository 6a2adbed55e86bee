package core

import "repro/internal/cluster"

// RecordedVersion reports the version recorded for a sample.
func (b DynBroadcast) RecordedVersion(env *cluster.Env, index int) (int64, bool) {
	return getHistory(env, b.ID).lookup(index)
}

// Release returns reserved workers to the available pool without
// dispatching (what a driver that decides not to proceed would do).
func (s *Selection) Release() {
	if s.used || s.ac == nil {
		return
	}
	s.used = true
	s.ac.coord.release(s.Workers)
}

// Available lists the ids of live, available workers.
func (s Stat) Available() []int {
	var out []int
	for _, w := range s.Workers {
		if w.Alive && w.Available {
			out = append(out, w.Worker)
		}
	}
	return out
}
