package maxip

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/la"
)

// requireRebuildEqual flushes ix and asserts its whole state — every score,
// every rank and every tournament node — bitwise-equals a fresh New at the
// same query: the rebuild-equivalence invariant, on the tree as well as on
// the scores it is played over.
func requireRebuildEqual(t testing.TB, ix *Index, u la.Vec, opts Options) {
	t.Helper()
	ix.Flush()
	fresh := New(ix.x, ix.cv, u, opts)
	for k := range fresh.s {
		if math.Float64bits(ix.s[k]) != math.Float64bits(fresh.s[k]) {
			t.Fatalf("slot %d (col %d): incremental score %v != rebuild %v", k, ix.cv.Cols[k], ix.s[k], fresh.s[k])
		}
		if math.Float64bits(ix.rank[k]) != math.Float64bits(fresh.rank[k]) {
			t.Fatalf("slot %d (col %d): incremental rank %v != rebuild %v", k, ix.cv.Cols[k], ix.rank[k], fresh.rank[k])
		}
	}
	for i := 1; i < len(fresh.tree); i++ {
		if ix.tree[i] != fresh.tree[i] {
			t.Fatalf("tree node %d of %d: incremental winner %d != rebuild %d", i, len(fresh.tree), ix.tree[i], fresh.tree[i])
		}
	}
}

// diagCSR stores one entry per row: row i holds column 2i (odd columns are
// absent), so SetRow(i) dirties exactly leaf i of the tournament.
func diagCSR(t *testing.T, n int) *la.CSR {
	t.Helper()
	m := la.NewCSR(n, 2*n, n)
	for i := 0; i < n; i++ {
		if err := m.AppendRow(la.SparseVec{Idx: []int32{int32(2 * i)}, Val: []float64{1 + float64(i%3)}, N: 2 * n}); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestFlushRepairShapes drives the level-by-level tree repair through the
// shapes its de-duplication has to get right, and checks the whole tree
// against a fresh build after each flush.
func TestFlushRepairShapes(t *testing.T) {
	type harness struct {
		ix   *Index
		u, w la.Vec
	}
	set := func(h *harness, i int, v float64) {
		h.u[i] = v
		h.ix.SetRow(int32(i), v)
	}
	cases := []struct {
		name string
		cols int // distinct columns (= rows of the diagonal matrix)
		edit func(h *harness)
	}{
		{"one dirty leaf", 16, func(h *harness) { set(h, 5, 3) }},
		{"all leaves dirty", 16, func(h *harness) {
			for i := range h.u {
				set(h, i, float64(i%7)-3.5)
			}
		}},
		{"two leaves under one parent", 16, func(h *harness) { set(h, 6, 2); set(h, 7, -9) }},
		{"same leaf twice", 16, func(h *harness) { set(h, 9, 4); set(h, 9, -1) }},
		{"padding leaves", 11, func(h *harness) { set(h, 10, 5); set(h, 0, -2) }}, // base 16: leaves 11..15 are -1
		{"lone real leaf beside padding", 9, func(h *harness) { set(h, 8, 7) }},
		{"single column", 1, func(h *harness) { set(h, 0, 2) }}, // the leaf is the root
		{"MarkCol only", 16, func(h *harness) {
			h.w[6], h.w[20] = 7, -3
			h.ix.MarkCol(6)
			h.ix.MarkCol(20)
			h.ix.MarkCol(5) // absent column: ignored
		}},
		{"MarkCol and SetRow on one leaf", 16, func(h *harness) {
			h.w[8] = 2
			h.ix.MarkCol(8)
			set(h, 4, 1.5)
		}},
		{"generation wrap", 16, func(h *harness) {
			// the first flush stamps every internal node with generation 1;
			// after the wrap generation 1 comes round again, and stale
			// stamps must not pass for this flush's
			for i := range h.u {
				set(h, i, 1)
			}
			h.ix.Flush()
			h.ix.nodeGen = math.MaxUint32
			for i := range h.u {
				set(h, i, float64(16-i))
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := diagCSR(t, tc.cols)
			cv := la.NewColView(x)
			h := &harness{u: make(la.Vec, tc.cols), w: make(la.Vec, 2*tc.cols)}
			opts := Options{ExactBelow: -1, Scorer: func(col int32, s float64) float64 {
				return math.Abs(s) + math.Abs(h.w[col])
			}}
			h.ix = New(x, cv, nil, opts)
			if h.ix.exact {
				t.Fatal("case must run on the tree")
			}
			tc.edit(h)
			requireRebuildEqual(t, h.ix, h.u, opts)
			// a second round on the repaired tree: stamps left by the first
			// flush must not suppress matches in the next
			set(h, tc.cols-1, -11)
			set(h, 0, 0.5)
			requireRebuildEqual(t, h.ix, h.u, opts)
			want, _ := oracleTopK(cv, h.u, tc.cols, opts.Scorer)
			got := h.ix.TopK(tc.cols, nil)
			if len(got) != len(want) {
				t.Fatalf("topk len %d != %d", len(got), len(want))
			}
			for p := range want {
				if got[p] != want[p] {
					t.Fatalf("rank %d: col %d != oracle %d", p, got[p], want[p])
				}
			}
			requireRebuildEqual(t, h.ix, h.u, opts) // extraction restored the tree
		})
	}
}

// greedyRound is the maintenance load one greedy_cd round puts on the
// index: the rows storing the 64 top-ranked columns of sparse-wide/small
// (~140 rows, ~9k stored entries, ~8.7k distinct columns — greedy picks the
// heavy columns, so this is far wider than 64 random rows).
func greedyRound(tb testing.TB) (ix *Index, rows []int32) {
	tb.Helper()
	d, err := dataset.Generate(dataset.SparseWide(dataset.ScaleSmall, 42))
	if err != nil {
		tb.Fatal(err)
	}
	cv := la.NewColView(d.X)
	u := la.NewVec(d.NumRows())
	rng := rand.New(rand.NewSource(5))
	for i := range u {
		u[i] = rng.NormFloat64()
	}
	ix = New(d.X, cv, u, Options{})
	seen := map[int32]bool{}
	for _, j := range ix.TopK(64, nil) {
		colRows, _ := cv.Col(j)
		for _, i := range colRows {
			if !seen[i] {
				seen[i] = true
				rows = append(rows, i)
			}
		}
	}
	return ix, rows
}

// TestFlushSteadyStateAllocs pins the maintenance path's budget: once the
// dirty lists have grown to a round's size, SetRow×N + Flush + TopK
// allocates nothing.
func TestFlushSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	ix, rows := greedyRound(t)
	out := make([]int32, 0, 64)
	round := func() {
		for _, i := range rows {
			ix.SetRow(i, -ix.u[i])
		}
		ix.Flush()
		out = ix.TopK(64, out[:0])
	}
	round() // grow the dirty lists and the TopK scratch
	if a := testing.AllocsPerRun(20, round); a != 0 {
		t.Errorf("steady-state SetRow×%d + Flush + TopK allocates %v per round, want 0", len(rows), a)
	}
}

// BenchmarkFlushGreedyRound times Flush at the shape the greedy solver
// produces (see greedyRound), reporting the dirty-set sizes beside ns/op.
func BenchmarkFlushGreedyRound(b *testing.B) {
	ix, rows := greedyRound(b)
	var cols int
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, i := range rows {
			ix.SetRow(i, -ix.u[i])
		}
		cols = ix.Flush()
	}
	b.ReportMetric(float64(len(rows)), "rows/op")
	b.ReportMetric(float64(cols), "cols/op")
}
