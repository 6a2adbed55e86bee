package maxip

import (
	"math/rand"
	"testing"

	"repro/internal/la"
)

// FuzzMaxIPIndex interleaves query edits (SetRow / sparse AddRows), flushes,
// and TopK queries against a brute-force oracle. Every query's ranking and
// scores must match the oracle exactly — the bitwise rebuild-equivalence
// contract under arbitrary operation interleavings.
func FuzzMaxIPIndex(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5})
	f.Add(int64(42), []byte{9, 9, 9, 0, 0, 7, 1, 3})
	f.Add(int64(7), []byte{255, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		rows := 8 + rng.Intn(24)
		cols := 20 + rng.Intn(200)
		x := randomCSR(t, rng, rows, cols, 1+rng.Intn(5))
		cv := la.NewColView(x)
		u := make(la.Vec, rows)
		exactBelow := -1
		if len(ops) > 0 && ops[0]&1 == 1 {
			exactBelow = 1 << 20 // exercise exact-scan mode too
		}
		ix := New(x, cv, nil, Options{ExactBelow: exactBelow})

		for _, op := range ops {
			switch op % 4 {
			case 0: // point set
				i := int32(rng.Intn(rows))
				v := rng.NormFloat64()
				u[i] = v
				ix.SetRow(i, v)
			case 1: // sparse increment
				nnz := 1 + rng.Intn(4)
				idx := make([]int32, 0, nnz)
				seen := map[int32]bool{}
				for len(idx) < nnz {
					i := int32(rng.Intn(rows))
					if !seen[i] {
						seen[i] = true
						idx = append(idx, i)
					}
				}
				sortI32(idx)
				dv := &la.DeltaVec{Idx: idx, Val: make([]float64, len(idx)), N: rows}
				for k := range dv.Val {
					dv.Val[k] = rng.NormFloat64()
					u[idx[k]] += dv.Val[k]
				}
				ix.AddRows(dv)
			case 2: // explicit flush
				ix.Flush()
			case 3: // query and check against the oracle
				k := 1 + int(op)%9
				got := ix.TopK(k, nil)
				want, wantS := oracleTopK(cv, u, k, nil)
				if len(got) != len(want) {
					t.Fatalf("topk len %d != %d", len(got), len(want))
				}
				for p := range got {
					if got[p] != want[p] {
						t.Fatalf("rank %d: col %d != oracle %d", p, got[p], want[p])
					}
					if s := ix.Score(got[p]); s != wantS[p] {
						t.Fatalf("col %d: score %v != oracle %v", got[p], s, wantS[p])
					}
				}
			}
		}
		// terminal invariant: every maintained score and every tree node
		// bitwise-equals a fresh build
		requireRebuildEqual(t, ix, u, Options{ExactBelow: exactBelow})
	})
}
