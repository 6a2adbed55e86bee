package rdd

import (
	"math"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/la"
)

// FuzzChangeLogPatch drives the driver store's change log with random
// interleavings of two ids: sparse-change registrations (whose logged set may
// list an unchanged coordinate), "all" registrations, plain Broadcasts and
// trims below the 4·workers the store keeps. Versions come from the one
// global counter, so an id's versions are not consecutive. For every pair of
// versions of an id, the store must answer from the log exactly when every
// version in (have, v] is still stored and logged a sparse change, and a
// patch of v's values at the logged coordinates must turn have's vector into
// v's bit for bit.
func FuzzChangeLogPatch(f *testing.F) {
	c, err := cluster.NewLocal(cluster.Config{NumWorkers: 2, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(c.Shutdown)
	ctx := NewContext(c)
	keep := 4 * c.NumWorkers()
	f.Add([]byte{0, 1, 2, 1, 3, 4, 0, 5, 0x80, 8, 6, 7, 2, 9, 9, 0, 1, 1})
	f.Add([]byte{0, 1, 1, 2, 2, 2, 0, 3, 3, 4, 4, 4, 6, 5, 5, 7, 6, 6, 0, 7, 7})
	f.Add([]byte{0, 0, 0, 0, 1, 1, 0, 2, 2, 0, 3, 3, 0, 4, 4, 0, 5, 5, 0, 6, 6, 0, 7, 7, 0, 8, 8, 0, 9, 9, 0, 10, 10})
	const dim = 12
	f.Fuzz(func(t *testing.T, ops []byte) {
		ops = ops[:min(len(ops), 3*64)] // the check below is cubic in the versions
		ctx.mu.Lock()
		ctx.store = nil // a fresh store and handler for this input
		ctx.mu.Unlock()
		type version struct {
			id     string
			vec    la.Vec
			sparse bool
		}
		all := map[int64]version{}
		cur := map[string]la.Vec{"a": make(la.Vec, dim), "b": make(la.Vec, dim)}
		for ; len(ops) >= 3; ops = ops[3:] {
			op, x, y := ops[0], int(ops[1]), int(ops[2])
			id := "ab"[op&1 : op&1+1]
			next := cur[id].Clone()
			// one coordinate gets an arbitrary bit pattern (−0, NaN payloads
			// and infinities included); a second may be listed unchanged
			next[x%dim] = math.Float64frombits(uint64(y)<<56 | uint64(x)<<3 | uint64(op))
			var b Broadcast
			sparse := false
			switch (op >> 1) % 4 {
			case 0:
				b, sparse = ctx.BroadcastChanged(id, next, Changed{Idx: slices.Compact(slices.Sorted(slices.Values([]int32{int32(x % dim), int32(y % dim)})))}), true
			case 1:
				b = ctx.BroadcastChanged(id, next, Changed{All: true})
			case 2:
				b = ctx.Broadcast(id, next)
			case 3:
				ctx.PruneBroadcast(id, 1+y%keep)
				continue
			}
			cur[id] = next
			all[b.Version] = version{id: id, vec: next, sparse: sparse}
		}
		s := ctx.ensureStore()
		stored := func(id string, ver int64) bool {
			s.mu.RLock()
			defer s.mu.RUnlock()
			_, ok := s.vals[id][ver]
			return ok
		}
		for v, want := range all {
			if !stored(want.id, v) {
				continue
			}
			for have, base := range all {
				if base.id != want.id {
					continue
				}
				ans, err := s.fetch(want.id, v, have)
				if err != nil {
					t.Fatal(err)
				}
				chain := have < v
				for u, mid := range all {
					if mid.id == want.id && have < u && u <= v {
						chain = chain && mid.sparse && stored(mid.id, u)
					}
				}
				if ans.Logged != chain {
					t.Fatalf("%s@%d from %d: answered from the log %v, want %v", want.id, v, have, ans.Logged, chain)
				}
				if !ans.Logged {
					continue
				}
				if !slices.IsSorted(ans.Changed) || len(slices.Compact(slices.Clone(ans.Changed))) != len(ans.Changed) {
					t.Fatalf("%s@%d from %d: logged coordinates %v not strictly increasing", want.id, v, have, ans.Changed)
				}
				got := base.vec.Clone()
				for _, j := range ans.Changed {
					got[j] = want.vec[j]
				}
				for j := range got {
					if math.Float64bits(got[j]) != math.Float64bits(want.vec[j]) {
						t.Fatalf("%s@%d from %d: the log patch leaves coordinate %d wrong", want.id, v, have, j)
					}
				}
			}
		}
	})
}
