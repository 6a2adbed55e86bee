package rdd

import (
	"math"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/la"
)

// FuzzChangeLogPatch drives the driver store with random interleavings of
// two ids: sparse-change registrations of a model the caller keeps writing
// to after each call (whose logged set may list an unchanged coordinate),
// "all" registrations of it, plain Broadcasts of a copy, trims below the
// 4·workers the store keeps, and reads. Versions come from the one global
// counter, so an id's versions are not consecutive. Two arms check it.
//
// Materialise: a read of a stored version, at any point of the interleaving
// and after all of it, returns the registered vector bit for bit, and every
// vector a read handed out keeps its bits through the registrations, folds
// and trims that follow.
//
// Patch: for every pair of versions of an id, the store answers with a patch
// exactly when every version in (have, v] is still stored and logged a
// sparse change, and the union of their logged sets encodes shorter than
// the vector. The patch lists that union with v's values, so it turns have's
// vector into v's bit for bit. Any other answer is v's vector, with have's
// beside it when have is stored and the log does not cover the range.
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
	// a whole version read, then enough sparse ones to trim it: the fold
	// must not write into the vector the read handed out
	f.Add([]byte{2, 0, 0, 8, 0, 0, 0, 1, 1, 0, 2, 2, 0, 3, 3, 0, 4, 4, 0, 5, 5, 0, 6, 6, 0, 7, 7, 0, 8, 8, 0, 9, 9, 8, 0, 0})
	// two sparse versions that log the same coordinate: one patch entry
	f.Add([]byte{2, 0, 0, 0, 1, 1, 0, 1, 3})
	// a sparse version read as the oldest, then trims that fold past it
	f.Add([]byte{2, 0, 0, 0, 1, 1, 0, 2, 2, 6, 0, 1, 8, 0, 0, 0, 3, 3, 0, 4, 4, 6, 0, 0, 8, 1, 0, 0, 5, 5, 8, 0, 0})
	const dim = 12
	f.Fuzz(func(t *testing.T, ops []byte) {
		ops = ops[:min(len(ops), 3*64)] // the patch arm is cubic in the versions
		ctx.mu.Lock()
		ctx.store = nil // a fresh store and handler for this input
		ctx.mu.Unlock()
		s := ctx.ensureStore()
		type version struct {
			id     string
			vec    la.Vec
			sparse bool    // stored as the values that changed
			idx    []int32 // what it logged, when sparse
		}
		reg := map[int64]version{}
		var order []int64 // registration order
		model := map[string]la.Vec{"a": make(la.Vec, dim), "b": make(la.Vec, dim)}
		type handout struct{ got, want la.Vec }
		var handed []handout
		read := func(id string, v int64) {
			t.Helper()
			ans, err := s.fetch(id, v, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := ans.Value.(la.Vec)
			if !bitsEqual(got, reg[v].vec) {
				t.Fatalf("%s@%d reads back %v, registered %v", id, v, got, reg[v].vec)
			}
			handed = append(handed, handout{got, reg[v].vec})
		}
		stored := func(id string, ver int64) bool {
			s.mu.RLock()
			defer s.mu.RUnlock()
			_, ok := s.ids[id].find(ver)
			return ok
		}
		for ; len(ops) >= 3; ops = ops[3:] {
			op, x, y := ops[0], int(ops[1]), int(ops[2])
			id := "ab"[op&1 : op&1+1]
			w := model[id]
			kind := (op >> 1) % 5
			if kind <= 2 {
				// one coordinate gets an arbitrary bit pattern (−0, NaN
				// payloads and infinities included); a second may be listed
				// unchanged
				w[x%dim] = math.Float64frombits(uint64(y)<<56 | uint64(x)<<3 | uint64(op))
			}
			first := !slices.ContainsFunc(order, func(v int64) bool { return reg[v].id == id })
			var b Broadcast
			e := version{id: id, vec: w.Clone()}
			switch kind {
			case 0:
				e.idx = slices.Compact(slices.Sorted(slices.Values([]int32{int32(x % dim), int32(y % dim)})))
				e.sparse = !first
				b = ctx.BroadcastChanged(id, w, Changed{Idx: e.idx})
			case 1:
				b = ctx.BroadcastChanged(id, w, Changed{All: true})
			case 2:
				b = ctx.Broadcast(id, w.Clone())
			case 3:
				ctx.PruneBroadcast(id, 1+y%keep)
				continue
			case 4:
				var mine []int64
				for _, v := range order {
					if reg[v].id == id && stored(id, v) {
						mine = append(mine, v)
					}
				}
				if len(mine) > 0 {
					read(id, mine[len(mine)-1-y%len(mine)])
				}
				continue
			}
			reg[b.Version] = e
			order = append(order, b.Version)
			for _, h := range handed {
				if !bitsEqual(h.got, h.want) {
					t.Fatalf("registering %s@%d changed a vector an earlier read handed out", id, b.Version)
				}
			}
		}
		kept := map[int64]bool{}
		for _, v := range order {
			if want := reg[v]; stored(want.id, v) {
				kept[v] = true
				read(want.id, v)
			}
		}
		for v, want := range reg {
			if !kept[v] {
				continue
			}
			for have, base := range reg {
				if base.id != want.id {
					continue
				}
				ans, err := s.fetch(want.id, v, have)
				if err != nil {
					t.Fatal(err)
				}
				chain := have < v
				var union []int32
				for u, mid := range reg {
					if mid.id == want.id && have < u && u <= v {
						chain = chain && mid.sparse && kept[u]
						union = append(union, mid.idx...)
					}
				}
				union = slices.Compact(slices.Sorted(slices.Values(union)))
				if patched := chain && cluster.PatchShorter(dim, union); (ans.Patch != nil) != patched {
					t.Fatalf("%s@%d from %d: answered with a patch %v, want %v", want.id, v, have, ans.Patch != nil, patched)
				}
				if ans.Patch == nil {
					if got, _ := ans.Value.(la.Vec); !bitsEqual(got, want.vec) {
						t.Fatalf("%s@%d from %d: the dense answer differs from the registered vector", want.id, v, have)
					}
					wantBase := !chain && have != v && kept[have]
					if gotBase, _ := ans.Base.(la.Vec); wantBase != (gotBase != nil) || wantBase && !bitsEqual(gotBase, base.vec) {
						t.Fatalf("%s@%d from %d: base %v, want %v", want.id, v, have, gotBase, wantBase)
					}
					continue
				}
				if !slices.Equal(ans.Patch.Idx, union) {
					t.Fatalf("%s@%d from %d: the patch lists %v, the logged sets %v", want.id, v, have, ans.Patch.Idx, union)
				}
				got := base.vec.Clone()
				for k, j := range ans.Patch.Idx {
					got[j] = ans.Patch.Val[k]
				}
				if !bitsEqual(got, want.vec) {
					t.Fatalf("%s@%d from %d: the log patch rebuilds %v, want %v", want.id, v, have, got, want.vec)
				}
				la.PutDelta(ans.Patch)
			}
		}
		for _, h := range handed {
			if !bitsEqual(h.got, h.want) {
				t.Fatal("a vector a read handed out changed after the read")
			}
		}
	})
}

// bitsEqual compares two vectors as float64 bit patterns.
func bitsEqual(a, b la.Vec) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
