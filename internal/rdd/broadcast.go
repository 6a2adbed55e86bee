package rdd

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Broadcast is the handle of a registered broadcast value: tasks carry the
// (id, version) pair and workers resolve the value through the fetch path,
// at most once per version while their cache keeps it (§4.3).
type Broadcast struct {
	ID      string
	Version int64
}

var bcastSeq atomic.Int64

// driverStore holds the driver-side copies the fetch path serves.
type driverStore struct {
	mu   sync.RWMutex
	vals map[string]map[int64]any
}

func newDriverStore() *driverStore {
	return &driverStore{vals: map[string]map[int64]any{}}
}

// put registers (id, ver) and trims id to its newest keep versions.
func (s *driverStore) put(id string, ver int64, v any, keep int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.vals[id]
	if !ok {
		m = map[int64]any{}
		s.vals[id] = m
	}
	m[ver] = v
	trim(m, keep)
}

// trim drops all but the newest keep (at least one) versions of m.
func trim(m map[int64]any, keep int) {
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

func (s *driverStore) get(id string, ver int64) (any, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.vals[id][ver]
	if !ok {
		return nil, fmt.Errorf("rdd: broadcast %s@%d not found on driver", id, ver)
	}
	return v, nil
}

// ensureStore lazily installs the driver store and fetch handler.
func (ctx *Context) ensureStore() *driverStore {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	if ctx.store == nil {
		ctx.store = newDriverStore()
		ctx.c.SetFetchHandler(ctx.store.get)
	}
	return ctx.store
}

// Broadcast registers value under a fresh version of id on the driver;
// nothing is sent. Re-broadcasting costs an (id, version) pair inside the
// tasks, not the value.
//
// This is the one place that decides how long the driver keeps a version:
// the newest 4·NumWorkers() of each id. A worker runs one task at a time, so
// at most NumWorkers() versions are named by a task in flight and not yet
// fetched; the versions a history table reads back live in that worker's
// cache and are never asked of the driver again. The other 3·NumWorkers()
// are slack for a worker that fetches late and patch bases for workers a few
// versions behind — a base that is gone costs a dense reply, never an error.
// A worker stalled for longer than that finds its version gone: its task
// fails and is dispatched again (see core.ErrTaskFailed).
func (ctx *Context) Broadcast(id string, value any) Broadcast {
	ver := bcastSeq.Add(1)
	ctx.ensureStore().put(id, ver, value, 4*ctx.c.NumWorkers())
	return Broadcast{ID: id, Version: ver}
}

// DriverValue reads a broadcast value from the driver store (driver side).
func (ctx *Context) DriverValue(b Broadcast) (any, error) {
	return ctx.ensureStore().get(b.ID, b.Version)
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
