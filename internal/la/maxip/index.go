package maxip

import (
	"fmt"
	"math"

	"repro/internal/la"
)

// Options configure an Index.
type Options struct {
	// ExactBelow is the distinct-column count under which the index skips
	// the tournament tree and answers TopK by exact linear scan (the scan
	// beats tree bookkeeping at small d, and doubles as the reference
	// selector). Zero picks DefaultExactBelow; negative forces the tree.
	ExactBelow int

	// Scorer maps a column and its maintained inner product s = ⟨x_j, u⟩ to
	// the ranking value TopK maximises. nil ranks by |s|. Scorers must
	// return non-negative finite values (the extraction sentinel is −Inf)
	// and may read consumer state beyond s — but then the consumer must
	// MarkCol every column whose outside state changed.
	Scorer func(col int32, s float64) float64
}

// DefaultExactBelow is the dimension threshold below which the exact-scan
// fallback replaces the tournament tree.
const DefaultExactBelow = 1024

// Index maintains the exact inner products s_j = ⟨x_j, u⟩ of every stored
// CSR column against a mutable query vector u, and answers top-k-by-rank
// queries without scanning all columns. See the package comment for the
// maintenance cost model and the rebuild-equivalence invariant.
//
// An Index is not safe for concurrent use.
type Index struct {
	x  *la.CSR
	cv *la.ColView
	u  la.Vec

	s      []float64 // per slot: ⟨column, u⟩, storage-order dot
	rank   []float64 // per slot: scorer(col, s)
	scorer func(col int32, s float64) float64

	exact bool
	base  int     // leaf span (power of two ≥ len(cv.Cols)); tree mode only
	tree  []int32 // winner slots; tree[1] is the root, leaves at [base, 2·base)

	rowMark   []uint64
	rowGen    uint64
	dirtyRows []int32
	colMark   []uint64
	colGen    uint64
	dirtyCols []int32  // dirty slots, first-touch order
	nodeMark  []uint32 // per internal tree node: Flush generation that replayed it
	nodeGen   uint32

	savedSlot []int32 // TopK mask/restore scratch
	savedRank []float64
}

// New builds the index of x's columns (via its column view cv) at the query
// vector u (nil = zeros). u is copied; the caller keeps ownership. The view
// must have been built from x.
func New(x *la.CSR, cv *la.ColView, u la.Vec, opts Options) *Index {
	if u != nil && len(u) != x.NumRows {
		panic(fmt.Sprintf("maxip: query dim %d != %d rows", len(u), x.NumRows))
	}
	exactBelow := opts.ExactBelow
	if exactBelow == 0 {
		exactBelow = DefaultExactBelow
	}
	c := len(cv.Cols)
	ix := &Index{
		x: x, cv: cv,
		u:       make(la.Vec, x.NumRows),
		s:       make([]float64, c),
		rank:    make([]float64, c),
		scorer:  opts.Scorer,
		exact:   c <= exactBelow,
		rowMark: make([]uint64, x.NumRows),
		colMark: make([]uint64, c),
		rowGen:  1, colGen: 1,
	}
	if !ix.exact {
		ix.base = 1
		for ix.base < c {
			ix.base <<= 1
		}
		ix.tree = make([]int32, 2*ix.base)
		ix.nodeMark = make([]uint32, ix.base)
	}
	ix.Rebuild(u)
	return ix
}

// Cols returns the number of distinct columns the index ranks.
func (ix *Index) Cols() int { return len(ix.cv.Cols) }

// colDot recomputes slot k's inner product by a full column dot in storage
// order — the one arithmetic Rebuild also uses, which is what makes
// incremental maintenance bitwise-equal to a rebuild.
func (ix *Index) colDot(k int) float64 {
	start, end := ix.cv.Starts[k], ix.cv.Starts[k+1]
	rows := ix.cv.Rows[start:end]
	vals := ix.cv.Vals[start:end]
	var s float64
	for t, i := range rows {
		s += vals[t] * ix.u[i]
	}
	return s
}

func (ix *Index) rankOf(k int) float64 {
	if ix.scorer == nil {
		return math.Abs(ix.s[k])
	}
	return ix.scorer(ix.cv.Cols[k], ix.s[k])
}

// Rebuild recomputes every score (and the tree) from scratch at the query
// vector u; nil keeps the current query. O(nnz + c).
func (ix *Index) Rebuild(u la.Vec) {
	if u != nil {
		if len(u) != len(ix.u) {
			panic(fmt.Sprintf("maxip: query dim %d != %d rows", len(u), len(ix.u)))
		}
		copy(ix.u, u)
	}
	for k := range ix.s {
		ix.s[k] = ix.colDot(k)
		ix.rank[k] = ix.rankOf(k)
	}
	ix.rowGen++
	ix.colGen++
	ix.dirtyRows = ix.dirtyRows[:0]
	ix.dirtyCols = ix.dirtyCols[:0]
	if ix.exact {
		return
	}
	for i := range ix.tree[ix.base:] {
		if i < len(ix.s) {
			ix.tree[ix.base+i] = int32(i)
		} else {
			ix.tree[ix.base+i] = -1
		}
	}
	for i := ix.base - 1; i >= 1; i-- {
		ix.tree[i] = ix.better(ix.tree[2*i], ix.tree[2*i+1])
	}
}

// better picks the winning slot: higher rank, ties to the smaller slot
// (hence the smaller column id — cv.Cols is sorted).
func (ix *Index) better(a, b int32) int32 {
	switch {
	case a < 0:
		return b
	case b < 0:
		return a
	case ix.rank[a] > ix.rank[b]:
		return a
	case ix.rank[a] < ix.rank[b]:
		return b
	case a < b:
		return a
	default:
		return b
	}
}

// repair fixes the tournament path of slot k after its rank changed.
func (ix *Index) repair(k int) {
	for i := (ix.base + k) >> 1; i >= 1; i >>= 1 {
		ix.tree[i] = ix.better(ix.tree[2*i], ix.tree[2*i+1])
	}
}

// repairAbove replays the tournament above a set of re-ranked slots one
// level at a time: each pass plays the match at every distinct parent of
// the previous level's nodes, so a match shared by many dirty leaves is
// played once, after both of its subtrees are final. nodes arrives holding
// the slots and is consumed as scratch: each level overwrites the last.
func (ix *Index) repairAbove(nodes []int32) {
	if ix.nodeGen++; ix.nodeGen == 0 { // stamp wrapped: old marks would alias
		clear(ix.nodeMark)
		ix.nodeGen = 1
	}
	for t, k := range nodes {
		nodes[t] = int32(ix.base) + k
	}
	for len(nodes) > 0 && nodes[0] > 1 {
		parents := nodes[:0]
		for _, c := range nodes {
			p := c >> 1
			if ix.nodeMark[p] != ix.nodeGen {
				ix.nodeMark[p] = ix.nodeGen
				ix.tree[p] = ix.better(ix.tree[2*p], ix.tree[2*p+1])
				parents = append(parents, p)
			}
		}
		nodes = parents
	}
}

// SetRow sets query coordinate i (a matrix row) to v and defers the
// re-scoring of that row's columns to the next Flush.
func (ix *Index) SetRow(i int32, v float64) {
	ix.u[i] = v
	if ix.rowMark[i] != ix.rowGen {
		ix.rowMark[i] = ix.rowGen
		ix.dirtyRows = append(ix.dirtyRows, i)
	}
}

// AddRows folds a sparse increment into the query vector: u[i] += v for
// every (i, v) in dv, marking the touched rows dirty. dv indexes matrix
// rows, so dv.N must equal the row count.
func (ix *Index) AddRows(dv *la.DeltaVec) {
	if dv.N != len(ix.u) {
		panic(fmt.Sprintf("maxip: AddRows dim %d != %d rows", dv.N, len(ix.u)))
	}
	for t, i := range dv.Idx {
		ix.SetRow(i, ix.u[i]+dv.Val[t])
	}
}

// MarkCol flags column j for re-ranking at the next Flush even though its
// inner product did not change — the hook for scorers that read consumer
// state beyond s (e.g. the model coordinate itself). Unknown columns are
// ignored.
func (ix *Index) MarkCol(j int32) {
	if k := ix.cv.Slot(j); k >= 0 {
		ix.markSlot(int32(k))
	}
}

func (ix *Index) markSlot(k int32) {
	if ix.colMark[k] != ix.colGen {
		ix.colMark[k] = ix.colGen
		ix.dirtyCols = append(ix.dirtyCols, k)
	}
}

// Flush propagates dirty query rows to the columns stored on them (through
// the view's per-entry slot table — no lookup), re-scores exactly those
// columns, and replays the tournament matches above them once each.
// Returns the number of columns re-scored. Cost: O(Σ nnz(dirty rows) +
// Σ nnz(dirty columns) + distinct tree nodes above the dirty leaves).
func (ix *Index) Flush() int {
	for _, i := range ix.dirtyRows {
		for _, k := range ix.cv.EntrySlot[ix.x.RowPtr[i]:ix.x.RowPtr[i+1]] {
			ix.markSlot(k)
		}
	}
	ix.dirtyRows = ix.dirtyRows[:0]
	ix.rowGen++
	n := len(ix.dirtyCols)
	for _, k := range ix.dirtyCols {
		ix.s[k] = ix.colDot(int(k))
		ix.rank[k] = ix.rankOf(int(k))
	}
	if !ix.exact {
		ix.repairAbove(ix.dirtyCols)
	}
	ix.dirtyCols = ix.dirtyCols[:0]
	ix.colGen++
	return n
}

// Score returns the maintained inner product ⟨x_j, u⟩ (0 for a column with
// no stored entries), flushing pending updates first.
func (ix *Index) Score(j int32) float64 {
	ix.Flush()
	return ix.scoreOf(j)
}

// Scores appends the maintained inner products of cols to out, in order,
// after a single flush — the batch form of Score.
func (ix *Index) Scores(cols []int32, out []float64) []float64 {
	ix.Flush()
	for _, j := range cols {
		out = append(out, ix.scoreOf(j))
	}
	return out
}

func (ix *Index) scoreOf(j int32) float64 {
	if k := ix.cv.Slot(j); k >= 0 {
		return ix.s[k]
	}
	return 0
}

// TopK appends the k best-ranked column ids to out (highest rank first,
// ties by ascending column id) and returns the extended slice. Fewer than
// k are returned only when the matrix stores fewer distinct columns.
// Pending updates are flushed first. O(k·log c) on the tree, O(c·log k)
// in exact-scan mode.
func (ix *Index) TopK(k int, out []int32) []int32 {
	ix.Flush()
	if k <= 0 {
		return out
	}
	if ix.exact {
		return ix.scanTopK(k, out)
	}
	// extract by mask-and-repair: pop the root winner, sink its rank to
	// −Inf, repair, repeat; then restore the popped ranks.
	ix.savedSlot = ix.savedSlot[:0]
	ix.savedRank = ix.savedRank[:0]
	for len(ix.savedSlot) < k {
		w := ix.tree[1]
		if w < 0 || math.IsInf(ix.rank[w], -1) {
			break
		}
		out = append(out, ix.cv.Cols[w])
		ix.savedSlot = append(ix.savedSlot, w)
		ix.savedRank = append(ix.savedRank, ix.rank[w])
		ix.rank[w] = math.Inf(-1)
		ix.repair(int(w))
	}
	for t, w := range ix.savedSlot {
		ix.rank[w] = ix.savedRank[t]
		ix.repair(int(w))
	}
	return out
}

// scanTopK is the exact-mode selection: one pass over all slots with a
// bounded insertion buffer, producing the same (rank desc, column asc)
// order as tree extraction.
func (ix *Index) scanTopK(k int, out []int32) []int32 {
	if k > len(ix.s) {
		k = len(ix.s)
	}
	base := len(out)
	for slot := range ix.s {
		r := ix.rank[slot]
		sel := out[base:]
		if len(sel) == k && r <= ix.rank[sel[len(sel)-1]] {
			continue // ties keep the incumbent (smaller column id)
		}
		// first position ranked strictly below r: equals stay ahead
		lo, hi := 0, len(sel)
		for lo < hi {
			mid := (lo + hi) / 2
			if ix.rank[sel[mid]] < r {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		if len(sel) < k {
			out = append(out, 0)
			sel = out[base:]
		}
		copy(sel[lo+1:], sel[lo:])
		sel[lo] = int32(slot)
	}
	sel := out[base:]
	for t, slot := range sel {
		sel[t] = ix.cv.Cols[slot]
	}
	return out
}
