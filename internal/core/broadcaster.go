package core

import (
	"sync"

	"repro/internal/cluster"
)

// DynBroadcast is the handle returned by ASYNCbroadcast (§4.3): a broadcast
// id plus the version assigned to the value. Re-broadcasting a new value
// under the same id ships only the (id, version) pair inside tasks; workers
// pull the value at most once per version while they keep it, which is what
// makes historical-gradient methods (SAGA/ASAGA) communication-efficient.
//
// Every version is published the same way: registered on the driver, fetched
// by a worker on first use, cached there. Retention has two halves. The
// driver keeps the newest 4·workers versions of an id (rdd.Context.Broadcast
// is the one site that decides, and says why). A worker keeps, per id, the
// newest version it resolved plus every version its history table still
// references — a version BroadcastHistory.Record stored for some sample and
// no later Record overwrote — so a historical read never goes back to the
// driver. Everything else is dropped from the worker's cache
// (cluster.BroadcastCache). ResetRun drops all references. The history
// half (History, TryValueAt, Record) is the paper's Table-1
// w_br.value(index); saga/asaga keep a coefficient per row instead
// (opt.SagaKernel), so its one non-test caller is opt.SAGAVersionHistory.
type DynBroadcast struct {
	ID      string
	Version int64
}

// ASYNCbroadcast registers value under id with a fresh version on the
// driver. Nothing is sent: workers resolve (id, version) through the fetch
// path and cache it. This is the ASYNCbroadcaster's driver half.
func (ac *Context) ASYNCbroadcast(id string, value any) DynBroadcast {
	b := ac.rctx.Broadcast(id, value)
	return DynBroadcast{ID: id, Version: b.Version}
}

// ASYNCbroadcastStamped is the versioned model broadcast of the steady-state
// driver loop: the value is re-registered under a fresh version only when
// stamp differs from the previous call's stamp for this id. When the stamp
// is unchanged — the driver loop came around without applying any update —
// the existing (id, version) handle is returned, value() is never invoked
// (no clone, no allocation), and workers whose caches already hold that
// version skip the fetch entirely. Drivers pass the model-update clock as
// the stamp, which makes a re-broadcast of an unchanged model free on the
// driver and on the wire.
func (ac *Context) ASYNCbroadcastStamped(id string, stamp int64, value func() any) DynBroadcast {
	ac.bcastMu.Lock()
	if ac.bcastMemo == nil {
		ac.bcastMemo = map[string]stampedBroadcast{}
	}
	if m, ok := ac.bcastMemo[id]; ok && m.stamp == stamp {
		ac.bcastMu.Unlock()
		return m.br
	}
	ac.bcastMu.Unlock()
	br := ac.ASYNCbroadcast(id, value())
	ac.bcastMu.Lock()
	ac.bcastMemo[id] = stampedBroadcast{stamp: stamp, br: br}
	ac.bcastMu.Unlock()
	return br
}

// stampedBroadcast memoizes the live (stamp, handle) pair per broadcast id.
type stampedBroadcast struct {
	stamp int64
	br    DynBroadcast
}

// Value resolves the broadcast's current value on a worker (w_br.value in
// Algorithms 2 and 4).
func (b DynBroadcast) Value(env *cluster.Env) (any, error) {
	return env.BroadcastValue(b.ID, b.Version)
}

// historyTable records, per broadcast id, the version each sample index
// last used — the worker half of Algorithm 4's historical gradients.
// Partitions are pinned to workers, so each worker owns the table shard for
// its samples.
//
// Every live version has one versionRef counting the samples that point at
// it; the worker's broadcast cache is told when a count crosses 0↔1
// (Retain/Release, under mu so the two crossings of one version cannot
// reorder) and keeps exactly the versions some sample can still read. A
// sample's entry is allocated once and then repointed, so the steady-state
// cost of a Record is one map read.
type historyTable struct {
	mu   sync.Mutex
	vers map[int]*sampleRef    // global sample index → the version it last used
	refs map[int64]*versionRef // the versions some sample points at
	cur  *versionRef           // refs[the latest recorded version]: a task records one version many times
}

type versionRef struct {
	ver     int64
	samples int
}

type sampleRef struct{ at *versionRef }

// lookup returns the version recorded for sample index.
func (h *historyTable) lookup(index int) (int64, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if s := h.vers[index]; s != nil {
		return s.at.ver, true
	}
	return 0, false
}

// record points sample index at version ver of broadcast id.
func (h *historyTable) record(cache *cluster.BroadcastCache, id string, index int, ver int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.cur == nil || h.cur.ver != ver {
		if h.cur = h.refs[ver]; h.cur == nil {
			h.cur = &versionRef{ver: ver}
			h.refs[ver] = h.cur
			cache.Retain(id, ver)
		}
	}
	s := h.vers[index]
	if s == nil {
		s = &sampleRef{}
		h.vers[index] = s
	}
	old := s.at
	if old == h.cur {
		return
	}
	s.at = h.cur
	h.cur.samples++
	if old != nil {
		if old.samples--; old.samples == 0 {
			delete(h.refs, old.ver)
			cache.Release(id, old.ver)
		}
	}
}

func getHistory(env *cluster.Env, id string) *historyTable {
	return env.StoreGetOrCreate("core.history."+id, func() any {
		return &historyTable{vers: map[int]*sampleRef{}, refs: map[int64]*versionRef{}}
	}).(*historyTable)
}

// BroadcastHistory is a resolved handle onto the worker's history table for
// one broadcast id. Per-sample loops hoist the handle once per task (the
// lookup concatenates a store key, which would otherwise allocate on every
// sample) and then use it allocation-free.
type BroadcastHistory struct {
	b     DynBroadcast
	h     *historyTable
	cache *cluster.BroadcastCache
}

// History resolves the worker's history-table handle for this broadcast.
func (b DynBroadcast) History(env *cluster.Env) BroadcastHistory {
	return BroadcastHistory{b: b, h: getHistory(env, b.ID), cache: env.Cache()}
}

// TryValueAt resolves the broadcast value recorded for sample index
// (w_br.value(index) in Algorithm 4), reporting ok=false when the sample has
// never been recorded (SAGA treats such samples as having zero historical
// gradient).
func (bh BroadcastHistory) TryValueAt(env *cluster.Env, index int) (any, bool, error) {
	ver, ok := bh.h.lookup(index)
	if !ok {
		return nil, false, nil
	}
	v, err := env.BroadcastValue(bh.b.ID, ver)
	if err != nil {
		return nil, false, err
	}
	return v, true, nil
}

// Record stores the handle's version as the one just used for sample index,
// to be read back by the next TryValueAt for that sample.
func (bh BroadcastHistory) Record(index int) {
	bh.h.record(bh.cache, bh.b.ID, index, bh.b.Version)
}

// RecordedVersion reports the version recorded for a sample (testing and
// diagnostics).
func (b DynBroadcast) RecordedVersion(env *cluster.Env, index int) (int64, bool) {
	return getHistory(env, b.ID).lookup(index)
}
