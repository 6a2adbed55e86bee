package rdd

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
)

// Broadcast is the handle of a registered broadcast value: tasks carry the
// (id, version) pair and workers resolve the value through the fetch path,
// at most once per version while their cache keeps it (§4.3).
type Broadcast struct {
	ID      string
	Version int64
}

// Changed names the coordinates of a vector value that may differ from the
// previous version of its id: every one (All), or the sorted, distinct
// indices Idx. Idx may list a coordinate whose bits did not change, never
// leave out one that did. The store keeps Idx and never writes it.
type Changed struct {
	Idx []int32
	All bool
}

var bcastSeq atomic.Int64

// logged is one stored version: its value and what changed since prev, the
// version of the id registered before it (0 = none).
type logged struct {
	v       any
	prev    int64
	changed Changed
}

// driverStore holds the driver-side copies the fetch path serves, with the
// change log patches are built from.
type driverStore struct {
	mu     sync.RWMutex
	vals   map[string]map[int64]logged
	newest map[string]int64
}

func newDriverStore() *driverStore {
	return &driverStore{vals: map[string]map[int64]logged{}, newest: map[string]int64{}}
}

// put registers v under a fresh version of id, logging ch against the
// previous version, and trims id to its newest keep versions. The version is
// drawn under the lock, so an id's versions are logged in increasing order.
func (s *driverStore) put(id string, v any, ch Changed, keep int) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.vals[id]
	if !ok {
		m = map[int64]logged{}
		s.vals[id] = m
	}
	ver := bcastSeq.Add(1)
	m[ver] = logged{v: v, prev: s.newest[id], changed: ch}
	s.newest[id] = ver
	trim(m, keep)
	return ver
}

// trim drops all but the newest keep (at least one) versions of m.
func trim(m map[int64]logged, keep int) {
	if keep < 1 {
		keep = 1
	}
	for len(m) > keep {
		oldest := int64(-1)
		for ver := range m {
			if oldest < 0 || ver < oldest {
				oldest = ver
			}
		}
		delete(m, oldest)
	}
}

// fetch is the cluster's FetchHandler. When every version in (have, ver] is
// still stored and logged a sparse change, the answer carries their union;
// an "all" entry, a plain Broadcast or a trimmed link leaves the patch to
// the cluster's diff of the two values. The union is built after the lock is
// released — logged sets are never written, and a publish waits on the
// write lock behind every fetch.
func (s *driverStore) fetch(id string, ver, have int64) (cluster.FetchAnswer, error) {
	s.mu.RLock()
	m := s.vals[id]
	e, ok := m[ver]
	if !ok {
		s.mu.RUnlock()
		return cluster.FetchAnswer{}, fmt.Errorf("rdd: broadcast %s@%d not found on driver", id, ver)
	}
	ans := cluster.FetchAnswer{Value: e.v, Base: m[have].v, Logged: 0 < have && have < ver}
	var sets [][]int32
	for cur := ver; ans.Logged && cur != have; cur = e.prev {
		e, ok = m[cur]
		ans.Logged = ok && !e.changed.All && e.prev >= have
		sets = append(sets, e.changed.Idx)
	}
	s.mu.RUnlock()
	if ans.Logged {
		ans.Changed = union(sets)
	}
	return ans, nil
}

// union merges sorted, distinct index sets; a single set is returned as is.
func union(sets [][]int32) []int32 {
	out := sets[0]
	for _, b := range sets[1:] {
		a := out
		out = make([]int32, 0, len(a)+len(b))
		for len(a) > 0 && len(b) > 0 {
			switch {
			case a[0] < b[0]:
				out, a = append(out, a[0]), a[1:]
			case b[0] < a[0]:
				out, b = append(out, b[0]), b[1:]
			default:
				out, a, b = append(out, a[0]), a[1:], b[1:]
			}
		}
		out = append(append(out, a...), b...)
	}
	return out
}

// ensureStore lazily installs the driver store and fetch handler.
func (ctx *Context) ensureStore() *driverStore {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	if ctx.store == nil {
		ctx.store = newDriverStore()
		ctx.c.SetFetchHandler(ctx.store.fetch)
	}
	return ctx.store
}

// Broadcast registers value under a fresh version of id on the driver;
// nothing is sent. Re-broadcasting costs an (id, version) pair inside the
// tasks, not the value. A worker that fetches a version of a vector value
// while holding an older one gets a patch; BroadcastChanged lets the caller
// say what changed, and without it the cluster compares the two versions.
//
// This is the one place that decides how long the driver keeps a version:
// the newest 4·NumWorkers() of each id, with their change log. A worker runs
// one task at a time, so at most NumWorkers() versions are named by a task in
// flight and not yet fetched; the versions a history table reads back live
// in that worker's cache and are never asked of the driver again. The other
// 3·NumWorkers() are slack for a worker that fetches late and patch bases for
// workers a few versions behind — a base that is gone still gets a patch
// while the log links it to the version asked for, and a dense reply after
// that, never an error. A worker stalled for longer than that finds its
// version gone: its task fails and is dispatched again (see
// core.ErrTaskFailed).
func (ctx *Context) Broadcast(id string, value any) Broadcast {
	return ctx.BroadcastChanged(id, value, Changed{All: true})
}

// BroadcastChanged is Broadcast for a value that reports what changed since
// the previous version of id: a fetch from a worker holding an older version
// is then answered from the union of the logged changes, in O(changed)
// rather than O(model).
func (ctx *Context) BroadcastChanged(id string, value any, ch Changed) Broadcast {
	ver := ctx.ensureStore().put(id, value, ch, 4*ctx.c.NumWorkers())
	return Broadcast{ID: id, Version: ver}
}

// PruneBroadcast trims id to its newest keep versions now, ahead of the trim
// every Broadcast applies. Nothing needs it: its last caller is
// benchmark/probe.go, and it goes with that call under ROADMAP 8(c).
func (ctx *Context) PruneBroadcast(id string, keep int) {
	s := ctx.ensureStore()
	s.mu.Lock()
	defer s.mu.Unlock()
	trim(s.vals[id], keep)
}
