package rdd

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/la"
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

// stored is one version of an id: a whole value (full), or, when sparse,
// the new values of the coordinates that changed since the version before
// it. A sparse version's vector is built on its first read and kept in full
// until the version is trimmed.
type stored struct {
	ver    int64
	full   any
	n      int // the vector's dimension; -1 for any other value
	sparse bool
	idx    []int32   // sparse: Changed.Idx, kept and never written
	vals   []float64 // sparse: the version's values at idx
}

// whole reports whether e's value is at hand: a whole version, or a sparse
// one already built.
func (e *stored) whole() bool { return !e.sparse || e.full != nil }

// apply writes e's logged values into w.
func (e *stored) apply(w la.Vec) {
	for k, j := range e.idx {
		w[j] = e.vals[k]
	}
}

// series is what the store keeps of one id: its versions, oldest first.
type series struct {
	vers []*stored
	// base is the oldest version's vector while that version is sparse.
	// Trimming folds each next version's values into it in place; it is
	// never handed out, so no reader sees a vector change under it.
	base    la.Vec
	dropped int64 // the newest trimmed version, 0 = none
}

// driverStore holds the driver-side versions the fetch path serves.
type driverStore struct {
	mu  sync.RWMutex
	ids map[string]*series
}

func newDriverStore() *driverStore {
	return &driverStore{ids: map[string]*series{}}
}

// put registers v under a fresh version of id and trims id to its newest
// keep versions. A borrowed vector is copied before put returns: whole for
// ch.All, or when id holds no version of the same dimension to log against,
// and otherwise only its values at ch.Idx. An owned value is kept as it is.
// The version is drawn under the lock, so an id's versions are stored in
// increasing order.
func (s *driverStore) put(id string, v any, ch Changed, borrowed bool, keep int) int64 {
	e := &stored{full: v, n: -1}
	vec, isVec := v.(la.Vec)
	if isVec {
		e.n = len(vec)
		switch {
		case !borrowed:
		case ch.All:
			e.full = vec.Clone()
		default:
			e.full, e.sparse, e.idx, e.vals = nil, true, ch.Idx, make([]float64, len(ch.Idx))
			for k, j := range ch.Idx {
				e.vals[k] = vec[j]
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.ids[id]
	if h == nil {
		h = &series{}
		s.ids[id] = h
	}
	if e.sparse && (len(h.vers) == 0 || h.vers[len(h.vers)-1].n != e.n) {
		e.full, e.sparse, e.idx, e.vals = vec.Clone(), false, nil, nil
	}
	e.ver = bcastSeq.Add(1)
	h.vers = append(h.vers, e)
	h.trim(keep)
	return e.ver
}

// trim drops all but the newest keep (at least one) versions. When the
// version that becomes the oldest is sparse, its values are folded into
// base: in place once base holds the dropped version, else into a copy of
// the dropped version's value, which a reader may hold.
func (h *series) trim(keep int) {
	for len(h.vers) > max(keep, 1) {
		old, next := h.vers[0], h.vers[1]
		if !next.sparse {
			h.base = nil
		} else {
			if h.base == nil {
				h.base = old.full.(la.Vec).Clone()
			}
			next.apply(h.base)
		}
		h.dropped = old.ver
		h.vers[0] = nil
		h.vers = h.vers[1:]
	}
}

// find returns the index of version ver.
func (h *series) find(ver int64) (int, bool) {
	if h == nil {
		return 0, false
	}
	return slices.BinarySearchFunc(h.vers, ver, func(e *stored, v int64) int { return cmp.Compare(e.ver, v) })
}

// value returns version i's value, building a sparse version's vector on
// its first read: a copy of the nearest whole value at or before it — a
// version read earlier, a whole version, or base — with the logged values
// after that applied in order.
func (h *series) value(i int) any {
	if e := h.vers[i]; e.whole() {
		return e.full
	}
	j := i
	for j > 0 && h.vers[j].full == nil {
		j--
	}
	src := h.base
	if f := h.vers[j].full; f != nil {
		src = f.(la.Vec)
	}
	w := src.Clone()
	for _, e := range h.vers[j+1 : i+1] {
		e.apply(w)
	}
	h.vers[i].full = w
	return w
}

// logged returns the versions in (have, vers[i]] when the log covers that
// range — every one of them stored and sparse, the first logged against
// have itself — and nil otherwise. The slice is the caller's own.
func (h *series) logged(have int64, i int) []*stored {
	if have <= 0 || have >= h.vers[i].ver {
		return nil
	}
	k, _ := h.find(have + 1)
	prev := h.dropped
	if k > 0 {
		prev = h.vers[k-1].ver
	}
	if prev != have || slices.ContainsFunc(h.vers[k:i+1], func(e *stored) bool { return !e.sparse }) {
		return nil
	}
	return slices.Clone(h.vers[k : i+1])
}

// fetch is the cluster's FetchHandler. When the log covers (have, ver], the
// answer is a patch of the logged values, the newest winning at each
// coordinate, as long as it encodes shorter than the vector
// (cluster.PatchShorter): nothing is materialised. Otherwise the answer is
// ver's value, and, when the log does not cover the range, have's value as
// the base the cluster diffs against (read). The patch is merged after the
// read lock is released: logged values are never written.
func (s *driverStore) fetch(id string, ver, have int64) (cluster.FetchAnswer, error) {
	s.mu.RLock()
	h := s.ids[id]
	var logs []*stored
	if i, ok := h.find(ver); ok {
		logs = h.logged(have, i)
	}
	s.mu.RUnlock()
	if logs != nil {
		p := mergeLogged(logs)
		if cluster.PatchShorter(p.N, p.Idx) {
			return cluster.FetchAnswer{Patch: p}, nil
		}
		la.PutDelta(p)
	}
	return s.read(id, ver, have, logs == nil)
}

// read answers a fetch with ver's value, and with have's as Base when base
// is set and have is stored. Values already whole are read under the read
// lock; a sparse version read for the first time is built under the write
// lock, so concurrent fetches and publishes queue only behind a build.
func (s *driverStore) read(id string, ver, have int64, base bool) (cluster.FetchAnswer, error) {
	s.mu.RLock()
	ans, done, err := s.ids[id].answer(id, ver, have, base, false)
	s.mu.RUnlock()
	if done {
		return ans, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ans, _, err = s.ids[id].answer(id, ver, have, base, true)
	return ans, err
}

// answer is read's answer under a lock: done is false, and nothing is read,
// when a value it needs is a sparse version not yet built and build is not
// set, which needs the write lock.
func (h *series) answer(id string, ver, have int64, base, build bool) (ans cluster.FetchAnswer, done bool, err error) {
	i, ok := h.find(ver)
	if !ok {
		return ans, true, fmt.Errorf("rdd: broadcast %s@%d not found on driver", id, ver)
	}
	j, withBase := h.find(have)
	withBase = withBase && base && have != ver
	if !build && (!h.vers[i].whole() || withBase && !h.vers[j].whole()) {
		return ans, false, nil
	}
	ans.Value = h.value(i)
	if withBase {
		ans.Base = h.value(j)
	}
	return ans, true, nil
}

// mergeLogged merges the logged values of consecutive sparse versions,
// oldest first, into one pooled patch: at a coordinate more than one of them
// lists, the newest's value wins.
func mergeLogged(logs []*stored) *la.DeltaVec {
	out, prev := la.GetDelta(0, logs[0].n), la.GetDelta(0, logs[0].n)
	for _, e := range logs {
		out, prev = prev, out
		out.Idx, out.Val = out.Idx[:0], out.Val[:0]
		a, b := 0, 0
		for a < len(prev.Idx) || b < len(e.idx) {
			if b == len(e.idx) || a < len(prev.Idx) && prev.Idx[a] < e.idx[b] {
				out.Idx, out.Val = append(out.Idx, prev.Idx[a]), append(out.Val, prev.Val[a])
				a++
				continue
			}
			if a < len(prev.Idx) && prev.Idx[a] == e.idx[b] {
				a++
			}
			out.Idx, out.Val = append(out.Idx, e.idx[b]), append(out.Val, e.vals[b])
			b++
		}
	}
	la.PutDelta(prev)
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
// tasks, not the value. Broadcast takes value over: the store keeps it
// as it is, uncopied, for as long as it keeps the version, and hands that
// same value to every reader, so the caller must not write to it after the
// call. A worker that fetches a version of a vector value while holding an
// older one gets a patch; BroadcastChanged lets the caller say what changed,
// and without it the cluster compares the two versions.
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
	return ctx.put(id, value, Changed{All: true}, false)
}

// BroadcastChanged is Broadcast for a value that reports what changed since
// the previous version of id, and it only borrows a vector value: the caller
// may write to it again once the call returns. The store copies what it
// keeps before returning: the whole vector for ch.All or when the newest
// version of id is not a vector of the same length (its first version, for
// one), and otherwise only the values at ch.Idx, which is all a version
// whose vector nothing reads costs. A reader of such a version gets
// a vector the store builds on the first read and keeps until the version
// is trimmed; a fetch from a worker holding an older version is answered
// from the logged values, in O(changed) rather than O(model).
func (ctx *Context) BroadcastChanged(id string, value any, ch Changed) Broadcast {
	return ctx.put(id, value, ch, true)
}

// put registers value in the store under the retention Broadcast decides.
func (ctx *Context) put(id string, value any, ch Changed, borrowed bool) Broadcast {
	ver := ctx.ensureStore().put(id, value, ch, borrowed, 4*ctx.c.NumWorkers())
	return Broadcast{ID: id, Version: ver}
}

// PruneBroadcast trims id to its newest keep versions now, ahead of the trim
// every Broadcast applies. Nothing needs it: its last caller is
// benchmark/probe.go, and it goes with that call under ROADMAP 8(c).
func (ctx *Context) PruneBroadcast(id string, keep int) {
	s := ctx.ensureStore()
	s.mu.Lock()
	defer s.mu.Unlock()
	if h := s.ids[id]; h != nil {
		h.trim(keep)
	}
}
