package maxip

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/la"
)

// randomCSR builds a seeded sparse matrix with nnz entries per row.
func randomCSR(t testing.TB, rng *rand.Rand, rows, cols, nnz int) *la.CSR {
	t.Helper()
	m := la.NewCSR(rows, cols, rows*nnz)
	for i := 0; i < rows; i++ {
		seen := map[int32]bool{}
		idx := make([]int32, 0, nnz)
		for len(idx) < nnz {
			j := int32(rng.Intn(cols))
			if !seen[j] {
				seen[j] = true
				idx = append(idx, j)
			}
		}
		sortI32(idx)
		val := make([]float64, len(idx))
		for k := range val {
			val[k] = rng.NormFloat64()
		}
		if err := m.AppendRow(la.SparseVec{Idx: idx, Val: val, N: cols}); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func sortI32(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// oracleTopK is the brute-force reference: fresh storage-order column dots,
// full sort by (rank desc, col asc).
func oracleTopK(cv *la.ColView, u la.Vec, k int, scorer func(int32, float64) float64) (ids []int32, scores []float64) {
	type kv struct {
		col int32
		s   float64
		r   float64
	}
	all := make([]kv, 0, len(cv.Cols))
	for slot := range cv.Cols {
		var dot float64
		for e := cv.Starts[slot]; e < cv.Starts[slot+1]; e++ {
			dot += cv.Vals[e] * u[cv.Rows[e]]
		}
		r := math.Abs(dot)
		if scorer != nil {
			r = scorer(cv.Cols[slot], dot)
		}
		all = append(all, kv{cv.Cols[slot], dot, r})
	}
	for i := 1; i < len(all); i++ { // insertion sort: stable, deterministic
		for j := i; j > 0 && (all[j].r > all[j-1].r || (all[j].r == all[j-1].r && all[j].col < all[j-1].col)); j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	if k > len(all) {
		k = len(all)
	}
	for _, e := range all[:k] {
		ids = append(ids, e.col)
		scores = append(scores, e.s)
	}
	return ids, scores
}

// TestIndexMatchesOracle drives the index through random query edits and
// checks TopK ids and Score values against the brute-force oracle, exactly.
func TestIndexMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := randomCSR(t, rng, 40, 300, 5)
	cv := la.NewColView(x)
	u := make(la.Vec, x.NumRows)
	ix := New(x, cv, u, Options{})
	if len(ix.cv.Cols) != len(cv.Cols) {
		t.Fatalf("Cols() = %d, view stores %d", len(ix.cv.Cols), len(cv.Cols))
	}
	for step := 0; step < 60; step++ {
		for e := 0; e < 3; e++ {
			i := int32(rng.Intn(x.NumRows))
			v := rng.NormFloat64()
			u[i] = v
			ix.SetRow(i, v)
		}
		k := 1 + rng.Intn(12)
		got := ix.TopK(k, nil)
		want, wantS := oracleTopK(cv, u, k, nil)
		if len(got) != len(want) {
			t.Fatalf("step %d: topk len %d != %d", step, len(got), len(want))
		}
		gotS := ix.Scores(got, nil)
		for p := range got {
			if got[p] != want[p] {
				t.Fatalf("step %d rank %d: col %d != oracle %d", step, p, got[p], want[p])
			}
			if gotS[p] != wantS[p] {
				t.Fatalf("step %d col %d: score %v != oracle %v (must be bitwise)", step, got[p], gotS[p], wantS[p])
			}
		}
	}
}

// TestIndexRebuildBitwise pins the rebuild-equivalence invariant: after a
// random sequence of sparse increments to the query, every maintained score
// and rank equals a from-scratch build at the same query — bitwise.
func TestIndexRebuildBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := randomCSR(t, rng, 64, 2000, 8)
	cv := la.NewColView(x)
	ix := New(x, cv, nil, Options{})

	u := make(la.Vec, x.NumRows)
	for step := 0; step < 25; step++ {
		nnz := 1 + rng.Intn(6)
		idx := make([]int32, 0, nnz)
		seen := map[int32]bool{}
		for len(idx) < nnz {
			i := int32(rng.Intn(x.NumRows))
			if !seen[i] {
				seen[i] = true
				idx = append(idx, i)
			}
		}
		for _, i := range idx {
			u[i] += rng.NormFloat64()
			ix.SetRow(i, u[i])
		}
		if step%7 != 0 {
			ix.Flush() // mix flushed and pending states across steps
		}
	}
	requireRebuildEqual(t, ix, u, Options{})
	// and the index's own Rebuild agrees with its incremental state
	got := ix.TopK(16, nil)
	ix.Rebuild(u)
	after := ix.TopK(16, nil)
	for p := range got {
		if got[p] != after[p] {
			t.Fatalf("rank %d: %d != %d after self-rebuild", p, got[p], after[p])
		}
	}
}

// TestIndexScorerAndMarkCol exercises a consumer scorer that reads state
// outside the index (a model vector): re-setting one of a column's rows to
// its current value re-ranks the column.
func TestIndexScorerAndMarkCol(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randomCSR(t, rng, 30, 120, 4)
	cv := la.NewColView(x)
	w := make(la.Vec, x.NumCols)
	scorer := func(col int32, s float64) float64 {
		if w[col] != 0 {
			return math.Abs(s) + 1e6 // held coordinates rank above everything
		}
		return math.Abs(s)
	}
	u := make(la.Vec, x.NumRows)
	for i := range u {
		u[i] = rng.NormFloat64()
	}
	ix := New(x, cv, u, Options{Scorer: scorer})

	base, _ := oracleTopK(cv, u, 1, scorer)
	if got := ix.TopK(1, nil); got[0] != base[0] {
		t.Fatalf("scorer topk %d != oracle %d", got[0], base[0])
	}

	// flip a model coordinate on: its column must outrank the field once
	// one of its rows is re-set — pick a stored column that is not already
	// the leader
	var flip int32 = -1
	for _, j := range cv.Cols {
		if j != base[0] {
			flip = j
			break
		}
	}
	w[flip] = 1
	rows, _ := cv.Col(flip)
	ix.SetRow(rows[0], u[rows[0]])
	if got := ix.TopK(1, nil); got[0] != flip {
		t.Fatalf("after re-setting row %d: leader %d, want flipped col %d", rows[0], got[0], flip)
	}
	want, _ := oracleTopK(cv, u, 5, scorer)
	got := ix.TopK(5, nil)
	for p := range want {
		if got[p] != want[p] {
			t.Fatalf("rank %d: %d != oracle %d", p, got[p], want[p])
		}
	}
}

// TestIndexTopKEdges: k larger than the column count, k = 0, absent
// columns score 0, and repeated extraction returns the same order.
func TestIndexTopKEdges(t *testing.T) {
	m := la.NewCSR(3, 10, 6)
	rows := []la.SparseVec{
		{Idx: []int32{1, 4}, Val: []float64{2, -1}, N: 10},
		{Idx: []int32{4, 7}, Val: []float64{0.5, 3}, N: 10},
		{Idx: []int32{1, 7}, Val: []float64{-1, 1}, N: 10},
	}
	for _, r := range rows {
		if err := m.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	cv := la.NewColView(m)
	ix := New(m, cv, la.Vec{1, 1, 1}, Options{})
	if got := ix.TopK(0, nil); len(got) != 0 {
		t.Fatalf("k=0 returned %v", got)
	}
	all := ix.TopK(99, nil)
	if len(all) != 3 { // only columns 1, 4, 7 are stored
		t.Fatalf("stored columns: got %v", all)
	}
	if s := ix.Scores([]int32{5}, nil); s[0] != 0 {
		t.Fatalf("absent column score %v", s[0])
	}
	again := ix.TopK(99, nil)
	for p := range all {
		if all[p] != again[p] {
			t.Fatalf("repeated extraction moved: %v vs %v", all, again)
		}
	}
}

// TestTopKTies: with ranks on a coarse grid most columns tie, so the
// candidate buffer's compactions keep and drop tied columns; every k must
// still match the oracle's (rank desc, column asc) order.
func TestTopKTies(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := randomCSR(t, rng, 30, 400, 4)
	cv := la.NewColView(x)
	u := make(la.Vec, x.NumRows)
	for i := range u {
		u[i] = rng.NormFloat64()
	}
	scorer := func(_ int32, s float64) float64 { return math.Floor(math.Abs(s)) }
	ix := New(x, cv, u, Options{Scorer: scorer})
	for _, k := range []int{1, 3, 16, 64, 200, len(cv.Cols)} {
		want, _ := oracleTopK(cv, u, k, scorer)
		got := ix.TopK(k, nil)
		if !slices.Equal(got, want) {
			t.Fatalf("k=%d: topk %v != oracle %v", k, got, want)
		}
	}
}
