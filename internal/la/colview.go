package la

import "slices"

// ColView is a column-major index over a CSR's stored entries — the
// incremental-maintenance substrate of the coordinate-descent family. A CSR
// answers "which columns does row i touch" in O(1); coordinate methods need
// the transpose question, "which rows does column j touch", to keep
// per-row inner products r_i = x_i·w exact under sparse coordinate updates:
// when w_j changes by δ, only the rows storing column j move, each by
// δ·x_ij — O(nnz(column j)) instead of O(n·d).
//
// The view stores only the distinct columns present (row partitions of a
// wide sparse matrix touch a small fraction of the dimension), so memory is
// O(nnz + distinct columns) and lookup by column id is a binary search over
// the distinct set. Lookup by stored entry needs no search: EntrySlot maps
// every CSR entry to its column's slot.
type ColView struct {
	Cols   []int32   // sorted distinct column ids present in the matrix
	Starts []int32   // len(Cols)+1 offsets into Rows/Vals
	Rows   []int32   // row ids, grouped by column
	Vals   []float64 // matching stored values

	// EntrySlot is aligned with the source CSR's ColIdx: EntrySlot[p] ==
	// Slot(ColIdx[p]) for every stored entry p, so a walk over a CSR row
	// reaches its columns' slots by indexing.
	EntrySlot []int32
}

// NewColView builds the column index of m in O(nnz + NumCols) time, with
// one transient NumCols-sized scratch table.
func NewColView(m *CSR) *ColView {
	nnz := int(m.RowPtr[m.NumRows])
	// slotOf[j] first counts column j's stored entries, then holds its slot
	slotOf := make([]int32, m.NumCols)
	distinct := 0
	for _, j := range m.ColIdx[:nnz] {
		if slotOf[j] == 0 {
			distinct++
		}
		slotOf[j]++
	}
	v := &ColView{
		Cols:      make([]int32, 0, distinct),
		Starts:    make([]int32, 1, distinct+1),
		Rows:      make([]int32, nnz),
		Vals:      make([]float64, nnz),
		EntrySlot: make([]int32, nnz),
	}
	for j, c := range slotOf {
		if c == 0 {
			continue
		}
		slotOf[j] = int32(len(v.Cols))
		v.Cols = append(v.Cols, int32(j))
		v.Starts = append(v.Starts, v.Starts[len(v.Cols)-1]+c)
	}
	// place each entry at its column's cursor, rows ascending within a column
	cursor := slices.Clone(v.Starts[:distinct])
	for i := 0; i < m.NumRows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			k := slotOf[m.ColIdx[p]]
			v.EntrySlot[p] = k
			v.Rows[cursor[k]] = int32(i)
			v.Vals[cursor[k]] = m.Val[p]
			cursor[k]++
		}
	}
	return v
}

// Slot returns the dense index of column j in Cols, or -1 when absent —
// the handle external column indexes (maxip) key their per-column state on.
func (v *ColView) Slot(j int32) int {
	if k, ok := slices.BinarySearch(v.Cols, j); ok {
		return k
	}
	return -1
}

// Col returns the rows and stored values of column j (nil, nil when the
// column has no stored entries). The slices alias the view; callers must
// not mutate them.
func (v *ColView) Col(j int32) (rows []int32, vals []float64) {
	k := v.Slot(j)
	if k < 0 {
		return nil, nil
	}
	return v.Rows[v.Starts[k]:v.Starts[k+1]], v.Vals[v.Starts[k]:v.Starts[k+1]]
}

// NNZ returns the number of stored entries.
func (v *ColView) NNZ() int { return len(v.Rows) }

// AxpyCol performs r[rows(j)] += delta·x_ij over column j's stored entries
// — the O(nnz(column)) residual maintenance step after coordinate j moved
// by delta.
func (v *ColView) AxpyCol(j int32, delta float64, r Vec) {
	rows, vals := v.Col(j)
	for t, i := range rows {
		r[i] += delta * vals[t]
	}
}

// ApplyDelta folds a sparse coordinate update into the per-row inner
// products: for every (j, δ_j) in dv, r[rows(j)] += δ_j·x_ij. Cost is the
// total stored nnz of the changed columns.
func (v *ColView) ApplyDelta(dv *DeltaVec, r Vec) {
	for k, j := range dv.Idx {
		v.AxpyCol(j, dv.Val[k], r)
	}
}

// ColSqSum returns Σ_i x_ij² over column j's stored entries — the
// data-constant factor of diagonal curvature preconditioning.
func (v *ColView) ColSqSum(j int32) float64 {
	_, vals := v.Col(j)
	var s float64
	for _, x := range vals {
		s += x * x
	}
	return s
}
