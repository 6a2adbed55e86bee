package la

import (
	"fmt"
	"sync"
)

// Sparse-delta substrate: DeltaVec is the payload type of the O(nnz) task
// path — a gradient (or model-update) restricted to the coordinates it
// actually touches — and DeltaAccum is the worker-side scatter accumulator
// that builds one without ever sweeping the full dimension. Together with
// the GetDelta/PutDelta pool they keep the sparse hot path allocation-free
// in steady state, mirroring the GetVec/PutVec discipline of the dense path.

// DeltaVec is a sparse update vector: strictly increasing coordinate
// indices, parallel values, and the logical dimension N. Unlike SparseVec
// (an immutable zero-copy row view into a CSR), a DeltaVec owns its storage,
// is mutable, and is pooled — task kernels build one per task and the driver
// recycles it with PutDelta after applying the update.
type DeltaVec struct {
	Idx []int32   // strictly increasing coordinate indices
	Val []float64 // values, len(Val) == len(Idx)
	N   int       // logical dimension
}

// AxpyDense computes y += alpha·d for dense y in O(nnz).
func (d *DeltaVec) AxpyDense(alpha float64, y Vec) {
	if d.N != len(y) {
		panic(fmt.Sprintf("la: delta AxpyDense dim mismatch %d != %d", d.N, len(y)))
	}
	GradAccum(alpha, d.Idx, d.Val, y)
}

// MergeFrom adds o into d in place (d ← d + o), keeping indices sorted and
// unique. The merge runs backwards over grown slices, so it allocates only
// when d's capacity cannot hold the union. o is left unchanged.
func (d *DeltaVec) MergeFrom(o *DeltaVec) {
	if d.N != o.N {
		panic(fmt.Sprintf("la: delta MergeFrom dim mismatch %d != %d", d.N, o.N))
	}
	if len(o.Idx) == 0 {
		return
	}
	// count the union size with a forward walk
	union, i, j := 0, 0, 0
	for i < len(d.Idx) && j < len(o.Idx) {
		switch {
		case d.Idx[i] < o.Idx[j]:
			i++
		case d.Idx[i] > o.Idx[j]:
			j++
		default:
			i++
			j++
		}
		union++
	}
	union += (len(d.Idx) - i) + (len(o.Idx) - j)
	nd := len(d.Idx)
	d.grow(union)
	// merge backwards so already-stored entries of d are never overwritten
	// before they are read
	w := union - 1
	i, j = nd-1, len(o.Idx)-1
	for j >= 0 {
		switch {
		case i >= 0 && d.Idx[i] > o.Idx[j]:
			d.Idx[w], d.Val[w] = d.Idx[i], d.Val[i]
			i--
		case i >= 0 && d.Idx[i] == o.Idx[j]:
			d.Idx[w], d.Val[w] = d.Idx[i], d.Val[i]+o.Val[j]
			i--
			j--
		default:
			d.Idx[w], d.Val[w] = o.Idx[j], o.Val[j]
			j--
		}
		w--
	}
	// entries of d below i are already in place
}

// grow resizes d to hold n entries, preserving the current prefix. Both
// capacities are checked: a delta filled by plain appends (and later pooled)
// need not have grown its two slices in step.
func (d *DeltaVec) grow(n int) {
	if cap(d.Idx) >= n && cap(d.Val) >= n {
		d.Idx = d.Idx[:n]
		d.Val = d.Val[:n]
		return
	}
	idx := make([]int32, n)
	val := make([]float64, n)
	copy(idx, d.Idx)
	copy(val, d.Val)
	d.Idx, d.Val = idx, val
}

// Delta pool: kernels on the sparse task path Get one per task, fill it via
// DeltaAccum.Compact, and ownership travels to the driver with the task
// result; the driver returns it with PutDelta after applying the update.
// Unlike the dense pool, deltas are not keyed by size — capacity grows to
// the running maximum nnz and then stabilises, so steady state allocates
// nothing. The same remote-transport note as PutVec applies: over TCP the
// driver recycles its decoded copies and remote workers allocate fresh.

const maxPooledDeltas = 64

var deltaPool = struct {
	mu   sync.Mutex
	free []*DeltaVec
}{}

// GetDelta returns a pooled DeltaVec with room for nnz entries (contents
// unspecified — callers overwrite every entry) and logical dimension n.
func GetDelta(nnz, n int) *DeltaVec {
	deltaPool.mu.Lock()
	var d *DeltaVec
	if l := len(deltaPool.free); l > 0 {
		d = deltaPool.free[l-1]
		deltaPool.free = deltaPool.free[:l-1]
	}
	deltaPool.mu.Unlock()
	if d == nil {
		d = &DeltaVec{}
	}
	d.grow(nnz)
	d.N = n
	return d
}

// PutDelta returns d to the pool. The caller must not retain any reference
// afterwards. Putting nil is a no-op.
func PutDelta(d *DeltaVec) {
	if d == nil {
		return
	}
	deltaPool.mu.Lock()
	if len(deltaPool.free) < maxPooledDeltas {
		deltaPool.free = append(deltaPool.free, d)
	}
	deltaPool.mu.Unlock()
}

// DeltaAccum is a generation-stamped sparse scatter accumulator (a SPA):
// Accum adds alpha·row into it touching only the row's coordinates, and
// Compact snapshots the touched set into a sorted pooled DeltaVec. Reset is
// O(1) — a generation bump invalidates all marks — so a per-task
// accumulation over any number of samples costs O(total nnz + t·log t) with
// t distinct touched coordinates, never O(dimension). The backing arrays
// are O(dimension) but persistent (they live in the worker's Scratch), so
// steady state allocates nothing.
type DeltaAccum struct {
	acc     []float64
	mark    []uint64
	gen     uint64
	touched []int32
	tmp     []int32 // radix-sort scratch, grown to the running max nnz
}

// NewDeltaAccum builds an empty accumulator of logical dimension n. Its
// generation starts past the zero marks, so it is ready without a Reset.
func NewDeltaAccum(n int) *DeltaAccum {
	return &DeltaAccum{acc: make([]float64, n), mark: make([]uint64, n), gen: 1}
}

// Dim returns the logical dimension.
func (a *DeltaAccum) Dim() int { return len(a.acc) }

// Reset clears the accumulator in O(1) by advancing the generation stamp.
func (a *DeltaAccum) Reset() {
	a.gen++
	a.touched = a.touched[:0]
}

// Accum adds alpha·(idx, val) into the accumulator — the sparse counterpart
// of GradAccum, tracking first touches as it scatters.
func (a *DeltaAccum) Accum(alpha float64, idx []int32, val []float64) {
	if len(idx) != len(val) {
		panic(fmt.Sprintf("la: DeltaAccum idx/val length mismatch %d != %d", len(idx), len(val)))
	}
	acc, mark, gen := a.acc, a.mark, a.gen
	for k, j := range idx {
		if mark[j] != gen {
			mark[j] = gen
			acc[j] = 0
			a.touched = append(a.touched, j)
		}
		acc[j] += alpha * val[k]
	}
}

// Compact sorts the touched coordinate set and snapshots it into a pooled
// DeltaVec. The accumulator itself stays valid (Compact does not Reset).
// Sorting is LSD radix over the bits of the dimension — comparison sorts
// cost ~10× more per element at the nnz counts sparse tasks produce, and
// the sort is the dominant term of Compact.
func (a *DeltaAccum) Compact() *DeltaVec {
	a.sortTouched()
	d := GetDelta(len(a.touched), len(a.acc))
	for i, j := range a.touched {
		d.Idx[i] = j
		d.Val[i] = a.acc[j]
	}
	return d
}

// radixDigitBits is the LSD radix width: 11 bits → one pass up to d = 2048,
// two passes up to d = 4M (every dataset in the repo), with a 16 KB
// stack-allocated counting table per pass.
const radixDigitBits = 11

// sortTouched sorts the touched list ascending, allocation-free in steady
// state (the swap buffer persists on the accumulator).
func (a *DeltaAccum) sortTouched() {
	t := a.touched
	if len(t) <= 48 {
		sortInt32(t)
		return
	}
	maxBits := bitsFor(int32(len(a.acc) - 1))
	if cap(a.tmp) < len(t) {
		a.tmp = make([]int32, len(t))
	}
	src, dst := t, a.tmp[:len(t)]
	inPlace := true
	for shift := 0; shift < maxBits; shift += radixDigitBits {
		var count [1 << radixDigitBits]int32
		for _, v := range src {
			count[(v>>shift)&(1<<radixDigitBits-1)]++
		}
		sum := int32(0)
		for i := range count {
			c := count[i]
			count[i] = sum
			sum += c
		}
		for _, v := range src {
			d := (v >> shift) & (1<<radixDigitBits - 1)
			dst[count[d]] = v
			count[d]++
		}
		src, dst = dst, src
		inPlace = !inPlace
	}
	if !inPlace {
		copy(t, src)
	}
}

// bitsFor returns the number of significant bits of v (≥ 1).
func bitsFor(v int32) int {
	n := 1
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// sortInt32 sorts s ascending without allocating (sort.Slice boxes its
// closure, which would cost an allocation per task on the sparse hot path).
// Insertion sort below a small cutoff, median-of-three quicksort above it,
// always recursing into the smaller side so stack depth stays O(log n).
func sortInt32(s []int32) {
	for len(s) > 12 {
		p := int32Pivot(s)
		lo, hi := 0, len(s)-1
		for lo <= hi {
			for s[lo] < p {
				lo++
			}
			for s[hi] > p {
				hi--
			}
			if lo <= hi {
				s[lo], s[hi] = s[hi], s[lo]
				lo++
				hi--
			}
		}
		if hi+1 < len(s)-lo {
			sortInt32(s[:hi+1])
			s = s[lo:]
		} else {
			sortInt32(s[lo:])
			s = s[:hi+1]
		}
	}
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// int32Pivot returns the median of the first, middle and last elements.
func int32Pivot(s []int32) int32 {
	a, b, c := s[0], s[len(s)/2], s[len(s)-1]
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
		if a > b {
			b = a
		}
	}
	return b
}
