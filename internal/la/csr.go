package la

import "fmt"

// CSR is a compressed-sparse-row matrix. It is the storage format for every
// dataset in the reproduction; dense datasets simply store every column of
// every row. Row i occupies Val[RowPtr[i]:RowPtr[i+1]] with column indices
// ColIdx[RowPtr[i]:RowPtr[i+1]].
type CSR struct {
	NumRows int
	NumCols int
	RowPtr  []int64
	ColIdx  []int32
	Val     []float64
}

// NewCSR allocates an empty CSR with capacity hints.
func NewCSR(rows, cols int, nnzHint int) *CSR {
	return &CSR{
		NumRows: rows,
		NumCols: cols,
		RowPtr:  make([]int64, 1, rows+1),
		ColIdx:  make([]int32, 0, nnzHint),
		Val:     make([]float64, 0, nnzHint),
	}
}

// AppendRow appends a row given by a sparse vector. The matrix must have been
// created with NewCSR; rows are appended in order. A row whose indices are
// not strictly increasing within [0, NumCols) is refused, as NewSparseVec
// refuses it: the row kernels index by that contract without checking it.
func (m *CSR) AppendRow(r SparseVec) error {
	if r.N != m.NumCols {
		return fmt.Errorf("la: AppendRow dim mismatch %d != %d", r.N, m.NumCols)
	}
	if len(m.RowPtr)-1 >= m.NumRows {
		return fmt.Errorf("la: AppendRow matrix already has %d rows", m.NumRows)
	}
	if err := checkRow(m.NumCols, r.Idx, r.Val); err != nil {
		return fmt.Errorf("la: AppendRow row %d: %w", len(m.RowPtr)-1, err)
	}
	m.ColIdx = append(m.ColIdx, r.Idx...)
	m.Val = append(m.Val, r.Val...)
	m.RowPtr = append(m.RowPtr, int64(len(m.Val)))
	return nil
}

// Complete reports whether all declared rows have been appended.
func (m *CSR) Complete() bool { return len(m.RowPtr)-1 == m.NumRows }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// Row returns a zero-copy sparse view of row i.
func (m *CSR) Row(i int) SparseVec {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return SparseVec{Idx: m.ColIdx[lo:hi], Val: m.Val[lo:hi], N: m.NumCols}
}

// RowNZ returns the raw index/value slices of row i without materialising a
// SparseVec view — the zero-overhead row access the gradient inner loops
// pair with SparseDot and GradAccum.
func (m *CSR) RowNZ(i int) ([]int32, []float64) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.ColIdx[lo:hi], m.Val[lo:hi]
}

// MatVec computes y = A x for dense x, y. y must have length NumRows. Each
// row sums into one accumulator in index order; a full row reads x
// contiguously.
func (m *CSR) MatVec(x, y Vec) {
	if len(x) != m.NumCols || len(y) != m.NumRows {
		panic(fmt.Sprintf("la: MatVec dims (%d,%d) vs x=%d y=%d", m.NumRows, m.NumCols, len(x), len(y)))
	}
	for i := 0; i < m.NumRows; i++ {
		idx, val := m.RowNZ(i)
		var acc float64
		if fullRow(idx, m.NumCols) {
			x := x[:len(val)]
			for k, v := range val {
				acc += v * x[k]
			}
		} else {
			for k, v := range val {
				acc += v * x[idx[k]]
			}
		}
		y[i] = acc
	}
}

// MatTVec computes y = Aᵀ x for dense x, y. y must have length NumCols.
func (m *CSR) MatTVec(x, y Vec) {
	if len(x) != m.NumRows || len(y) != m.NumCols {
		panic(fmt.Sprintf("la: MatTVec dims (%d,%d) vs x=%d y=%d", m.NumRows, m.NumCols, len(x), len(y)))
	}
	y.Zero()
	for i := 0; i < m.NumRows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		idx, val := m.RowNZ(i)
		if fullRow(idx, m.NumCols) {
			Axpy(xi, val, y)
			continue
		}
		for k, v := range val {
			y[idx[k]] += v * xi
		}
	}
}

// SliceRows returns a new CSR holding rows [lo, hi) of m. The returned matrix
// shares no storage with m (used when shipping partitions to workers).
func (m *CSR) SliceRows(lo, hi int) *CSR {
	if lo < 0 || hi > m.NumRows || lo > hi {
		panic(fmt.Sprintf("la: SliceRows [%d,%d) out of range 0..%d", lo, hi, m.NumRows))
	}
	s, e := m.RowPtr[lo], m.RowPtr[hi]
	out := &CSR{
		NumRows: hi - lo,
		NumCols: m.NumCols,
		RowPtr:  make([]int64, hi-lo+1),
		ColIdx:  append([]int32(nil), m.ColIdx[s:e]...),
		Val:     append([]float64(nil), m.Val[s:e]...),
	}
	for i := lo; i <= hi; i++ {
		out.RowPtr[i-lo] = m.RowPtr[i] - s
	}
	return out
}

// Density returns NNZ / (rows*cols).
func (m *CSR) Density() float64 {
	if m.NumRows == 0 || m.NumCols == 0 {
		return 0
	}
	return float64(m.NNZ()) / (float64(m.NumRows) * float64(m.NumCols))
}
