package cluster

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
)

// Env is the worker-local state visible to task functions: the partitions
// the worker owns, the broadcast cache (the ASYNCbroadcaster's worker half),
// a seeded RNG for mini-batch sampling, and a fetch hook for cache misses.
type Env struct {
	WorkerID int

	mu    sync.RWMutex
	parts map[int]*dataset.Partition

	cache *BroadcastCache
	rng   *rand.Rand
	rngMu sync.Mutex

	storeMu sync.Mutex
	store   map[string]any

	scratch Scratch

	// fetch blocks until the server returns the broadcast value (id, version).
	fetch func(id string, version int64) (any, error)
}

// NewEnv builds a worker environment. fetch may be nil for workers that never
// resolve historical broadcast values.
func NewEnv(workerID int, seed int64, fetch func(id string, version int64) (any, error)) *Env {
	return &Env{
		WorkerID: workerID,
		parts:    map[int]*dataset.Partition{},
		cache:    NewBroadcastCache(),
		rng:      rand.New(rand.NewSource(seed)),
		fetch:    fetch,
	}
}

// InstallPartition stores (or replaces) a partition on the worker.
func (e *Env) InstallPartition(p *dataset.Partition) error {
	if p == nil {
		return fmt.Errorf("cluster: worker %d: nil partition", e.WorkerID)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.parts[p.Index] = p
	return nil
}

// Partition returns the worker's copy of partition i.
func (e *Env) Partition(i int) (*dataset.Partition, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	p, ok := e.parts[i]
	if !ok {
		return nil, fmt.Errorf("cluster: worker %d does not hold partition %d", e.WorkerID, i)
	}
	return p, nil
}

// Partitions returns the indices of partitions held by the worker.
func (e *Env) Partitions() []int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]int, 0, len(e.parts))
	for i := range e.parts {
		out = append(out, i)
	}
	return out
}

// DropPartition removes partition i (used when rebalancing after recovery).
func (e *Env) DropPartition(i int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.parts, i)
}

// Rand calls f with the worker's seeded RNG under a lock. Task functions use
// it for mini-batch sampling when the task does not carry its own seed.
func (e *Env) Rand(f func(*rand.Rand)) {
	e.rngMu.Lock()
	defer e.rngMu.Unlock()
	f(e.rng)
}

// Cache exposes the worker's broadcast cache.
func (e *Env) Cache() *BroadcastCache { return e.cache }

// Scratch exposes the worker's typed scratch store (reusable compute
// buffers and the per-worker task RNG). See Scratch for the reuse contract.
func (e *Env) Scratch() *Scratch { return &e.scratch }

// StoreGetOrCreate returns the worker-local value under key, creating it
// with mk on first use. The ASYNC layer keeps per-worker history tables
// (sample index → model version) here.
func (e *Env) StoreGetOrCreate(key string, mk func() any) any {
	e.storeMu.Lock()
	defer e.storeMu.Unlock()
	if e.store == nil {
		e.store = map[string]any{}
	}
	v, ok := e.store[key]
	if !ok {
		v = mk()
		e.store[key] = v
	}
	return v
}

// StoreGet returns the worker-local value under key.
func (e *Env) StoreGet(key string) (any, bool) {
	e.storeMu.Lock()
	defer e.storeMu.Unlock()
	v, ok := e.store[key]
	return v, ok
}

// StoreDelete removes a worker-local value.
func (e *Env) StoreDelete(key string) {
	e.storeMu.Lock()
	defer e.storeMu.Unlock()
	delete(e.store, key)
}

// StoreClear drops every worker-local value. The store holds per-run state
// (broadcast history tables, ADMM subproblem state), so a reused engine
// clears it between runs to keep jobs from observing a predecessor's
// state. The history tables are what holds references into the broadcast
// cache, so those are all released with them.
func (e *Env) StoreClear() {
	e.storeMu.Lock()
	e.store = nil
	e.storeMu.Unlock()
	e.cache.releaseAll()
}

// BroadcastValue resolves a broadcast value: cache first, then a blocking
// fetch from the server. This is the worker half of the ASYNCbroadcaster:
// the server re-broadcasts only (id, version); the value itself crosses the
// wire once per worker for as long as the cache's retention rule keeps it.
func (e *Env) BroadcastValue(id string, version int64) (any, error) {
	if v, ok := e.cache.Get(id, version); ok {
		return v, nil
	}
	if e.fetch == nil {
		return nil, fmt.Errorf("cluster: worker %d: broadcast %s@%d not cached and no fetch path", e.WorkerID, id, version)
	}
	v, err := e.fetch(id, version)
	if err != nil {
		return nil, err
	}
	e.cache.Put(id, version, v)
	return v, nil
}

// BroadcastCache is the worker-side versioned broadcast store, keyed by
// (id, version). Versions are non-negative.
//
// Retention rule: per id the cache keeps the newest version it was given
// plus every version marked by Retain — the versions the worker's history
// table (core.BroadcastHistory.Record) still references — and nothing else.
// A Put drops the previous newest version unless it is retained; a Release
// drops its version unless it is the newest. A plain SGD-style run therefore
// holds 1–2 versions per id and a SAGA-style run exactly the versions
// Algorithm 4 can still read; anything evicted and asked for again is
// fetched again.
//
// Versions arrive in increasing order: a worker runs one task at a time,
// tasks reach it in dispatch order, the driver numbers the versions of an id
// in the order it registers them, and a task names the version current at
// its dispatch (fetched here, then Put) or one its history retained (still
// cached, no Put). Only a caller resolving a handle older than one this
// worker already resolved can Put below the newest; it gets its value, and
// the cache keeps it only if it is retained.
type BroadcastCache struct {
	mu   sync.RWMutex
	byID map[string]*idVersions

	hits     atomic.Int64
	misses   atomic.Int64
	evicted  atomic.Int64
	versions atomic.Int64
}

// noVersion is the "none" value of idVersions.newest.
const noVersion int64 = -1

type idVersions struct {
	vals   map[int64]any
	held   map[int64]struct{} // retained versions (a value need not be present)
	newest int64              // highest version Put so far
}

// NewBroadcastCache builds an empty cache.
func NewBroadcastCache() *BroadcastCache {
	return &BroadcastCache{byID: map[string]*idVersions{}}
}

// Get returns the cached value for (id, version).
func (c *BroadcastCache) Get(id string, version int64) (any, bool) {
	c.mu.RLock()
	var v any
	ok := false
	if e := c.byID[id]; e != nil {
		v, ok = e.vals[version]
	}
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

func (c *BroadcastCache) entry(id string) *idVersions {
	e := c.byID[id]
	if e == nil {
		e = &idVersions{vals: map[int64]any{}, held: map[int64]struct{}{}, newest: noVersion}
		c.byID[id] = e
	}
	return e
}

// evict drops version from e unless it is the newest or retained. Callers
// hold c.mu.
func (c *BroadcastCache) evict(e *idVersions, version int64) {
	if version == e.newest {
		return
	}
	if _, held := e.held[version]; held {
		return
	}
	if _, ok := e.vals[version]; ok {
		delete(e.vals, version)
		c.evicted.Add(1)
		c.versions.Add(-1)
		cacheEvictions.Inc()
		cacheVersions.Add(-1)
	}
}

// Put stores a value for (id, version) and applies the retention rule.
func (c *BroadcastCache) Put(id string, version int64, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entry(id)
	if _, held := e.held[version]; version < e.newest && !held {
		return
	}
	if _, exists := e.vals[version]; !exists {
		c.versions.Add(1)
		cacheVersions.Add(1)
	}
	e.vals[version] = v
	if prev := e.newest; version > prev {
		e.newest = version
		c.evict(e, prev)
	}
}

// Retain marks (id, version) as referenced: it stays cached until Release,
// whatever newer versions arrive.
func (c *BroadcastCache) Retain(id string, version int64) {
	c.mu.Lock()
	c.entry(id).held[version] = struct{}{}
	c.mu.Unlock()
}

// Release drops the reference Retain took; the version is evicted unless it
// is the newest of its id.
func (c *BroadcastCache) Release(id string, version int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.byID[id]; e != nil {
		delete(e.held, version)
		c.evict(e, version)
	}
}

// releaseAll drops every reference and with it every version but the
// newest of each id.
func (c *BroadcastCache) releaseAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.byID {
		clear(e.held)
		for ver := range e.vals {
			c.evict(e, ver)
		}
	}
}

// drop empties the cache (its worker is exiting), so the process-wide
// versions gauge stops counting what it held.
func (c *BroadcastCache) drop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.versions.Swap(0)
	cacheVersions.Add(-float64(n))
	clear(c.byID)
}

// Latest returns the newest cached version of id.
func (c *BroadcastCache) Latest(id string) (int64, any, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e := c.byID[id]
	if e == nil {
		return noVersion, nil, false
	}
	v, ok := e.vals[e.newest]
	return e.newest, v, ok
}

// CacheStats is a snapshot of cache counters, used by the broadcast ablation.
type CacheStats struct {
	Hits, Misses, Evicted int64
	Versions              int // (id, version) values held
	Retained              int // (id, version) references held (Retain without Release)
}

// Stats snapshots the counters.
func (c *BroadcastCache) Stats() CacheStats {
	c.mu.RLock()
	retained := 0
	for _, e := range c.byID {
		retained += len(e.held)
	}
	c.mu.RUnlock()
	return CacheStats{
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Evicted:  c.evicted.Load(),
		Versions: int(c.versions.Load()),
		Retained: retained,
	}
}
