package opt

import (
	"math/rand"
	"testing"

	"repro/internal/la"
)

// randomDelta builds a sorted sparse delta over dim coordinates.
func randomDelta(rng *rand.Rand, dim, nnz int) *la.DeltaVec {
	seen := map[int32]bool{}
	d := &la.DeltaVec{N: dim}
	for len(d.Idx) < nnz {
		j := int32(rng.Intn(dim))
		if seen[j] {
			continue
		}
		seen[j] = true
		d.Idx = append(d.Idx, j)
	}
	// MergeFrom requires sorted indices
	for i := 1; i < len(d.Idx); i++ {
		for k := i; k > 0 && d.Idx[k] < d.Idx[k-1]; k-- {
			d.Idx[k], d.Idx[k-1] = d.Idx[k-1], d.Idx[k]
		}
	}
	d.Val = make([]float64, nnz)
	for i := range d.Val {
		d.Val[i] = rng.NormFloat64()
	}
	return d
}

// TestRoundAccumDenseEquivalence: merging sparse partials through the
// accumulator matches densifying each partial into a dense sum.
func TestRoundAccumDenseEquivalence(t *testing.T) {
	const dim = 300
	rng := rand.New(rand.NewSource(7))
	acc := newRoundAccum(dim)
	want := la.NewVec(dim)
	for i := 0; i < 12; i++ {
		d := randomDelta(rng, dim, 20+rng.Intn(40))
		d.AxpyDense(1, want)
		acc.AddSparse(d.Clone()) // AddSparse recycles its argument
		la.PutDelta(d)
	}
	if acc.Dense() != nil {
		t.Fatal("sparse-only round grew a dense part")
	}
	got := la.NewVec(dim)
	acc.Sparse().AxpyDense(1, got)
	if !la.Equal(got, want, 0) {
		t.Fatal("merged sparse round != densified sum")
	}
	// mixed round: a dense partial forces Densify, which must fold the
	// sparse part in exactly once
	dense := la.GetVec(dim)
	for j := range dense {
		dense[j] = float64(j % 5)
		want[j] += dense[j]
	}
	acc.AddDense(dense)
	if !la.Equal(acc.Densify(), want, 0) {
		t.Fatal("mixed-round Densify != densified sum")
	}
	acc.Reset()
	if acc.hasDense || acc.hasSparse {
		t.Fatal("Reset left the accumulator non-empty")
	}
}

// TestRoundAccumAllocFree pins the satellite contract: once capacities have
// grown, absorbing sparse partials into a round allocates nothing — the
// merge runs in place over the persistent union buffer.
func TestRoundAccumAllocFree(t *testing.T) {
	const dim = 2000
	rng := rand.New(rand.NewSource(9))
	acc := newRoundAccum(dim)
	// fixed templates; the measured region only copies them into pooled
	// partials, exactly how task payloads arrive in production
	tplA := randomDelta(rng, dim, 64)
	tplB := randomDelta(rng, dim, 64)
	mk := func(tpl *la.DeltaVec) *la.DeltaVec {
		p := la.GetDelta(len(tpl.Idx), dim)
		copy(p.Idx, tpl.Idx)
		copy(p.Val, tpl.Val)
		return p
	}
	// warm: grow the union buffer and the delta pool to steady state
	for i := 0; i < 8; i++ {
		acc.AddSparse(mk(tplA))
		acc.AddSparse(mk(tplB))
		acc.Reset()
	}
	allocs := testing.AllocsPerRun(32, func() {
		acc.AddSparse(mk(tplA))
		acc.AddSparse(mk(tplB))
		acc.Reset()
	})
	// mk draws from the warmed delta pool; the merge must not allocate
	// either
	if allocs != 0 {
		t.Errorf("sparse round merge allocates %v per round, want 0", allocs)
	}
}

// TestSyncSGDSparseMatchesDense extends the PR 4 path-equivalence guarantee
// to the BSP round driver: sparse partials merged via MergeFrom produce the
// same model as the dense path on a fixed seed (bitwise — pure-sparse
// rounds apply the averaged step over the merged support only).
func TestSyncSGDSparseMatchesDense(t *testing.T) {
	p := Params{Step: InvSqrt{A: 0.1}, SampleFrac: 0.3, Updates: 40, SnapshotEvery: 20}
	run := func() la.Vec {
		ac, d := newSparseRig(t, 1, 2, sparseCfg())
		res, err := SyncSGD(ac, d, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.W
	}
	wSparse := run()
	forceDense(t)
	wDense := run()
	if !la.Equal(wSparse, wDense, 0) {
		t.Fatal("sparse and dense SyncSGD round paths diverged on a fixed seed")
	}
}

// TestSAGASparseRoundMatchesDense does the same for BSP SAGA: an all-sparse
// round now applies one merged O(nnz) update with lazy avgHist drift, and
// must settle to the dense round arithmetic (to rounding — the deferred
// drift telescopes).
func TestSAGASparseRoundMatchesDense(t *testing.T) {
	p := Params{Step: Constant{A: 0.02}, SampleFrac: 0.25, Updates: 40, SnapshotEvery: 20}
	run := func() la.Vec {
		ac, d := newSparseRig(t, 1, 2, sparseCfg())
		res, err := SAGA(ac, d, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.W
	}
	wSparse := run()
	forceDense(t)
	wDense := run()
	if !la.Equal(wSparse, wDense, 1e-9) {
		t.Fatal("sparse and dense SAGA round paths diverged on a fixed seed")
	}
}
