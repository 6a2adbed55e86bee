package maxip

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/la"
)

// Options configure an Index.
type Options struct {
	// Scorer maps a column and its maintained inner product s = ⟨x_j, u⟩ to
	// the ranking value TopK maximises. nil ranks by |s|. Scorers must
	// return finite values and may read consumer state beyond s — but then
	// the consumer must SetRow some row of every column whose outside state
	// changed (re-setting a row to its current value is enough).
	Scorer func(col int32, s float64) float64
}

// Index maintains the exact inner products s_j = ⟨x_j, u⟩ of every stored
// CSR column against a mutable query vector u, re-scores only the columns
// a query edit can have moved, and answers top-k-by-rank queries with one
// scan over the ranks. See the package comment for the cost model and the
// rebuild-equivalence invariant.
//
// An Index is not safe for concurrent use.
type Index struct {
	x  *la.CSR
	cv *la.ColView
	u  la.Vec

	s      []float64 // per slot: ⟨column, u⟩, storage-order dot
	rank   []float64 // per slot: scorer(col, s)
	scorer func(col int32, s float64) float64

	rowMark   []uint64
	rowGen    uint64
	dirtyRows []int32
	dirty     []uint64 // bitset over slots awaiting a re-score

	buf []entry // TopK scratch
}

// New builds the index of x's columns (via its column view cv) at the query
// vector u (nil = zeros). u is copied; the caller keeps ownership. The view
// must have been built from x.
func New(x *la.CSR, cv *la.ColView, u la.Vec, opts Options) *Index {
	if u != nil && len(u) != x.NumRows {
		panic(fmt.Sprintf("maxip: query dim %d != %d rows", len(u), x.NumRows))
	}
	c := len(cv.Cols)
	ix := &Index{
		x: x, cv: cv,
		u:       make(la.Vec, x.NumRows),
		s:       make([]float64, c),
		rank:    make([]float64, c),
		scorer:  opts.Scorer,
		rowMark: make([]uint64, x.NumRows),
		rowGen:  1,
		dirty:   make([]uint64, (c+63)/64),
	}
	ix.Rebuild(u)
	return ix
}

// rescore recomputes slot k's inner product by a full column dot in storage
// order — the one arithmetic Rebuild also uses, which is what makes
// incremental maintenance bitwise-equal to a rebuild — and re-ranks it.
func (ix *Index) rescore(k int) {
	start, end := ix.cv.Starts[k], ix.cv.Starts[k+1]
	rows := ix.cv.Rows[start:end]
	vals := ix.cv.Vals[start:end]
	var s float64
	for t, i := range rows {
		s += vals[t] * ix.u[i]
	}
	ix.s[k] = s
	if ix.scorer == nil {
		ix.rank[k] = math.Abs(s)
	} else {
		ix.rank[k] = ix.scorer(ix.cv.Cols[k], s)
	}
}

// Rebuild recomputes every score from scratch at the query vector u; nil
// keeps the current query. O(nnz + c).
func (ix *Index) Rebuild(u la.Vec) {
	if u != nil {
		if len(u) != len(ix.u) {
			panic(fmt.Sprintf("maxip: query dim %d != %d rows", len(u), len(ix.u)))
		}
		copy(ix.u, u)
	}
	for k := range ix.s {
		ix.rescore(k)
	}
	ix.rowGen++
	ix.dirtyRows = ix.dirtyRows[:0]
	clear(ix.dirty)
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

// Flush propagates dirty query rows to the columns stored on them (through
// the view's per-entry slot table — no lookup) and re-scores exactly those
// columns, once each, in ascending slot order: the column view, the scores
// and the ranks are all read forward. Returns the number of columns
// re-scored. Cost: O(Σ nnz(dirty rows) + Σ nnz(dirty columns) + c/64).
func (ix *Index) Flush() int {
	if len(ix.dirtyRows) == 0 {
		return 0
	}
	for _, i := range ix.dirtyRows {
		for _, k := range ix.cv.EntrySlot[ix.x.RowPtr[i]:ix.x.RowPtr[i+1]] {
			ix.dirty[k>>6] |= 1 << (k & 63)
		}
	}
	ix.dirtyRows = ix.dirtyRows[:0]
	ix.rowGen++
	n := 0
	for wi, word := range ix.dirty {
		if word == 0 {
			continue
		}
		ix.dirty[wi] = 0
		n += bits.OnesCount64(word)
		for ; word != 0; word &= word - 1 {
			ix.rescore(wi<<6 | bits.TrailingZeros64(word))
		}
	}
	return n
}

// Scores appends the maintained inner products ⟨x_j, u⟩ of cols to out, in
// order (0 for a column with no stored entries), after a single flush.
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
// Pending updates are flushed first.
//
// One forward scan over the ranks collects candidates above a threshold:
// a slot that cannot enter costs one comparison. Each time 2k candidates
// have gathered, a quickselect keeps the best k and raises the threshold
// to the k-th best's rank; a final select and sort order the block.
// O(c + inserts) expected, plus O(k·log k) for the sort.
func (ix *Index) TopK(k int, out []int32) []int32 {
	ix.Flush()
	k = min(k, len(ix.rank))
	if k <= 0 {
		return out
	}
	ix.buf = ix.buf[:0]
	thr := math.Inf(-1)
	for slot, r := range ix.rank {
		// slots arrive in ascending order, so a tie with the k-th best
		// loses: that candidate holds the smaller column id
		if r > thr {
			thr = ix.admit(entry{r, int32(slot)}, k, thr)
		}
	}
	if len(ix.buf) > k {
		selectBest(ix.buf, k)
		ix.buf = ix.buf[:k]
	}
	slices.SortFunc(ix.buf, func(a, b entry) int {
		if better(a, b) {
			return -1
		}
		return 1 // slots are distinct: never equal
	})
	for _, e := range ix.buf {
		out = append(out, ix.cv.Cols[e.slot])
	}
	return out
}

// admit adds a candidate to TopK's buffer and returns the new threshold:
// once 2k candidates have gathered, the best k stay and the threshold
// rises to the k-th best's rank. It is a call, not inline code, so that
// the scan loop keeps only the slot and the threshold in registers (inline,
// the loop ran 1.3–2× slower at k = 64).
//
//go:noinline
func (ix *Index) admit(e entry, k int, thr float64) float64 {
	ix.buf = append(ix.buf, e)
	if len(ix.buf) < 2*k {
		return thr
	}
	selectBest(ix.buf, k)
	ix.buf = ix.buf[:k]
	return ix.buf[k-1].rank
}

// entry is a block candidate: a slot and its rank.
type entry struct {
	rank float64
	slot int32
}

// better is TopK's total order: a higher rank, or an equal rank and the
// smaller slot (hence the smaller column id — cv.Cols is sorted).
func better(a, b entry) bool {
	return a.rank > b.rank || a.rank == b.rank && a.slot < b.slot
}

// selectBest reorders h so that h[:k] holds its k best entries with the
// k-th best at h[k-1] (Hoare quickselect; slots are distinct, so no two
// entries tie).
func selectBest(h []entry, k int) {
	lo, hi := 0, len(h)-1
	for lo < hi {
		p := h[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for better(h[i], p) {
				i++
			}
			for better(p, h[j]) {
				j--
			}
			if i <= j {
				h[i], h[j] = h[j], h[i]
				i++
				j--
			}
		}
		switch {
		case k-1 <= j:
			hi = j
		case k-1 >= i:
			lo = i
		default:
			return
		}
	}
}
