package core

import "repro/internal/cluster"

// RecordedVersion reports the version recorded for a sample.
func (b DynBroadcast) RecordedVersion(env *cluster.Env, index int) (int64, bool) {
	return getHistory(env, b.ID).lookup(index)
}
