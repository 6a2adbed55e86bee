package maxip

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/la"
)

// requireRebuildEqual flushes ix and asserts every score and every rank
// bitwise-equals a fresh New at the same query: the rebuild-equivalence
// invariant.
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
}

// diagCSR stores one entry per row: row i holds column 2i (odd columns are
// absent), so SetRow(i) dirties exactly slot i (the case names below call
// a slot a leaf).
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

// TestFlushRepairShapes drives Flush through the dirty patterns its slot
// bitset has to get right — word edges, a final partial word, a slot
// dirtied twice or by both MarkCol and SetRow — and checks the count Flush
// returns, then scores, ranks and TopK against a fresh build and the
// oracle.
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
		name  string
		cols  int // distinct columns (= rows of the diagonal matrix)
		dirty int // slots the first Flush must re-score
		edit  func(h *harness)
	}{
		{"one dirty leaf", 16, 1, func(h *harness) { set(h, 5, 3) }},
		{"all leaves dirty", 16, 16, func(h *harness) {
			for i := range h.u {
				set(h, i, float64(i%7)-3.5)
			}
		}},
		{"two leaves under one parent", 16, 2, func(h *harness) { set(h, 6, 2); set(h, 7, -9) }},
		{"same leaf twice", 16, 1, func(h *harness) { set(h, 9, 4); set(h, 9, -1) }},
		{"word edges", 130, 4, func(h *harness) {
			for _, i := range []int{63, 64, 127, 128} {
				set(h, i, float64(i)/10)
			}
		}},
		{"padding leaves", 11, 2, func(h *harness) { set(h, 10, 5); set(h, 0, -2) }}, // one word, bits 11..63 unused
		{"lone real leaf beside padding", 9, 1, func(h *harness) { set(h, 8, 7) }},
		{"lone slot in a final partial word", 65, 1, func(h *harness) { set(h, 64, 7) }},
		{"final partial word", 130, 3, func(h *harness) { set(h, 129, -4); set(h, 128, 2); set(h, 0, 1) }},
		{"single column", 1, 1, func(h *harness) { set(h, 0, 2) }},
		{"MarkCol only", 16, 2, func(h *harness) {
			h.w[6], h.w[20] = 7, -3
			h.ix.MarkCol(6)
			h.ix.MarkCol(20)
			h.ix.MarkCol(5) // absent column: ignored
		}},
		{"MarkCol and SetRow on one leaf", 16, 1, func(h *harness) {
			h.w[8] = 2
			h.ix.MarkCol(8)
			set(h, 4, 1.5)
		}},
		{"MarkCol of an absent column", 16, 0, func(h *harness) { h.ix.MarkCol(5) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := diagCSR(t, tc.cols)
			cv := la.NewColView(x)
			h := &harness{u: make(la.Vec, tc.cols), w: make(la.Vec, 2*tc.cols)}
			opts := Options{Scorer: func(col int32, s float64) float64 {
				return math.Abs(s) + math.Abs(h.w[col])
			}}
			h.ix = New(x, cv, nil, opts)
			tc.edit(h)
			if n := h.ix.Flush(); n != tc.dirty {
				t.Fatalf("Flush re-scored %d slots, want %d", n, tc.dirty)
			}
			if n := h.ix.Flush(); n != 0 {
				t.Fatalf("second Flush re-scored %d slots, want 0", n)
			}
			requireRebuildEqual(t, h.ix, h.u, opts)
			// a second round: bits cleared by the first flush must not
			// linger into the next
			set(h, tc.cols-1, -11)
			set(h, 0, 0.5)
			if n, want := h.ix.Flush(), min(tc.cols, 2); n != want {
				t.Fatalf("second round re-scored %d slots, want %d", n, want)
			}
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

// BenchmarkFlushGreedyRound times a selection round at the shape the greedy
// solver produces (see greedyRound): the whole round (SetRow on the rows,
// Flush, TopK(64)), and each part alone, with TopK at three block sizes.
func BenchmarkFlushGreedyRound(b *testing.B) {
	ix, rows := greedyRound(b)
	setRows := func() {
		for _, i := range rows {
			ix.SetRow(i, -ix.u[i])
		}
	}
	b.Run("Round", func(b *testing.B) {
		out := make([]int32, 0, 64)
		for n := 0; n < b.N; n++ {
			setRows()
			out = ix.TopK(64, out[:0])
		}
	})
	b.Run("SetRow", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			setRows()
			ix.dirtyRows = ix.dirtyRows[:0] // drop the marks unflushed
			ix.rowGen++
		}
		b.StopTimer()
		ix.Rebuild(nil) // re-score what the dropped marks left stale
	})
	b.Run("Flush", func(b *testing.B) {
		var cols int
		for n := 0; n < b.N; n++ {
			b.StopTimer()
			setRows()
			b.StartTimer()
			cols = ix.Flush()
		}
		b.ReportMetric(float64(len(rows)), "rows/op")
		b.ReportMetric(float64(cols), "cols/op")
	})
	for _, k := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("TopK/k=%d", k), func(b *testing.B) {
			out := make([]int32, 0, k)
			for n := 0; n < b.N; n++ {
				out = ix.TopK(k, out[:0])
			}
		})
	}
}
