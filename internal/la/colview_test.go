package la

import (
	"math/rand"
	"testing"
)

// randCSR builds a random sparse matrix with nnzPerRow stored entries per
// row (distinct columns, ascending).
func randCSR(rows, cols, nnzPerRow int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	m := NewCSR(rows, cols, rows*nnzPerRow)
	idx := make([]int32, 0, nnzPerRow)
	val := make([]float64, 0, nnzPerRow)
	for i := 0; i < rows; i++ {
		idx, val = idx[:0], val[:0]
		seen := map[int32]bool{}
		for len(idx) < nnzPerRow {
			j := int32(rng.Intn(cols))
			if seen[j] {
				continue
			}
			seen[j] = true
			idx = append(idx, j)
		}
		sortInt32(idx)
		for range idx {
			val = append(val, rng.NormFloat64())
		}
		if err := m.AppendRow(SparseVec{Idx: append([]int32(nil), idx...), Val: append([]float64(nil), val...), N: cols}); err != nil {
			panic(err)
		}
	}
	return m
}

// TestColViewMatchesDense checks every view accessor against a dense
// reconstruction of the matrix.
func TestColViewMatchesDense(t *testing.T) {
	const rows, cols, nnz = 60, 40, 5
	m := randCSR(rows, cols, nnz, 7)
	v := NewColView(m)

	dense := make([][]float64, rows)
	total := 0
	for i := 0; i < rows; i++ {
		dense[i] = make([]float64, cols)
		idx, val := m.RowNZ(i)
		for k, j := range idx {
			dense[i][j] = val[k]
		}
		total += len(idx)
	}
	if v.NNZ() != total {
		t.Fatalf("NNZ = %d, want %d", v.NNZ(), total)
	}

	for j := int32(0); j < cols; j++ {
		rowsJ, valsJ := v.Col(j)
		got := map[int32]float64{}
		for k, i := range rowsJ {
			if _, dup := got[i]; dup {
				t.Fatalf("col %d lists row %d twice", j, i)
			}
			got[i] = valsJ[k]
		}
		var sq float64
		for i := 0; i < rows; i++ {
			x := dense[i][int32(j)]
			sq += x * x
			if x == 0 {
				if _, ok := got[int32(i)]; ok && got[int32(i)] != 0 {
					t.Fatalf("col %d row %d: stored %v, dense 0", j, i, got[int32(i)])
				}
				continue
			}
			if got[int32(i)] != x {
				t.Fatalf("col %d row %d: stored %v, dense %v", j, i, got[int32(i)], x)
			}
		}
		if s := v.ColSqSum(j); s != sq && !(s-sq < 1e-12 && sq-s < 1e-12) {
			t.Fatalf("ColSqSum(%d) = %v, want %v", j, s, sq)
		}
	}
	if r, vv := v.Col(int32(cols + 5)); r != nil || vv != nil {
		t.Fatal("absent column returned stored entries")
	}
}

// TestColViewApplyDelta pins the residual-maintenance identity: advancing
// r by a coordinate delta through the column view equals recomputing
// X·(w + δ) from scratch, to rounding.
func TestColViewApplyDelta(t *testing.T) {
	const rows, cols, nnz = 80, 50, 6
	m := randCSR(rows, cols, nnz, 11)
	v := NewColView(m)
	rng := rand.New(rand.NewSource(3))

	w := NewVec(cols)
	for j := range w {
		w[j] = rng.NormFloat64()
	}
	r := NewVec(rows)
	m.MatVec(w, r)

	dv := &DeltaVec{N: cols}
	for j := 0; j < cols; j += 7 {
		dv.Idx = append(dv.Idx, int32(j))
		dv.Val = append(dv.Val, rng.NormFloat64())
	}
	v.ApplyDelta(dv, r)
	dv.AxpyDense(1, w)

	want := NewVec(rows)
	m.MatVec(w, want)
	if !Equal(r, want, 1e-12) {
		t.Fatal("incrementally maintained residuals diverged from recompute")
	}
}

// TestColViewEntrySlot pins the per-entry slot table: EntrySlot[p] is the
// slot of the column stored at CSR entry p, for every entry — on a random
// matrix and on one with empty rows and columns no row stores.
func TestColViewEntrySlot(t *testing.T) {
	holes := NewCSR(5, 12, 5)
	for _, r := range []SparseVec{
		{N: 12},
		{Idx: []int32{3, 7}, Val: []float64{1, 2}, N: 12},
		{N: 12},
		{Idx: []int32{0, 7, 11}, Val: []float64{3, 4, 5}, N: 12},
		{N: 12},
	} {
		if err := holes.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	for name, m := range map[string]*CSR{"random": randCSR(60, 400, 5, 13), "holes": holes} {
		v := NewColView(m)
		if name == "holes" && (len(v.Cols) != 4 || v.Slot(5) != -1) {
			t.Fatalf("holes: distinct cols %v, Slot(5) = %d", v.Cols, v.Slot(5))
		}
		if len(v.EntrySlot) != m.NNZ() {
			t.Fatalf("%s: EntrySlot has %d entries, matrix stores %d", name, len(v.EntrySlot), m.NNZ())
		}
		for p, j := range m.ColIdx {
			if got, want := int(v.EntrySlot[p]), v.Slot(j); got != want || want < 0 {
				t.Fatalf("%s: entry %d (col %d): EntrySlot %d, Slot %d", name, p, j, got, want)
			}
		}
	}
}
