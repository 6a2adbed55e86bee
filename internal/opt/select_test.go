package opt

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/la"
)

// TestCDGreedyClosedForm: on the decoupled diagonal design, greedy
// Gauss-Southwell selection must land every coordinate on the same
// closed-form elastic-net solution the cyclic pass reaches — the order
// changes, the fixed point does not.
func TestCDGreedyClosedForm(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		a := []float64{1.5, -0.8, 2.0, 0.5, 1.0, -1.2, 0.9, 1.8, -0.4, 0.7, 1.1, -2.2}
		y := []float64{2.0, 0.1, -1.5, 0.05, 0.8, -0.02, 1.2, 0.03, 0.3, -0.9, 0.01, 2.5}
		const l2, l1 = 0.1, 0.2
		d := diagDataset(t, a, y)
		n := float64(len(a))

		ac := cdRigOn(t, tr, d, 2, 4)
		p, c := Params{}, CDConfig{BlockSize: 4, Mode: "greedy", Step: 1}
		p.Loss = Composite{Inner: LeastSquares{}, L2: l2, L1: l1}
		p.Updates = 6
		p.SnapshotEvery = 3
		res, err := CD(ac, d, p, c, 0)
		if err != nil {
			t.Fatal(err)
		}
		for j := range a {
			want := SoftThreshold(2*a[j]*y[j], n*l1) / (2*a[j]*a[j] + n*l2)
			if math.Abs(res.W[j]-want) > 1e-9 {
				t.Fatalf("w[%d] = %v, closed form %v", j, res.W[j], want)
			}
		}
	})
}

// gsOracle ranks every stored column of d at model w from the CSR arrays
// alone — residuals r = Xw, the sum gradient g_j = Σ_i GradCoeff(r_i, y_i)·
// x_ij, the penalty-aware Gauss-Southwell score written out — and returns
// the columns sorted by (score desc, column asc) with the count that score
// above 0. It also returns g and the curvature sums h_j = Curvature·Σ_i
// x_ij², from which a caller takes a round's prox step.
func gsOracle(d *dataset.Dataset, lin Loss, nl2, nl1 float64, w la.Vec) (order []int32, positive int, g, h []float64) {
	x := d.X
	g = make([]float64, x.NumCols)
	h = make([]float64, x.NumCols)
	stored := make([]bool, x.NumCols)
	for i := 0; i < x.NumRows; i++ {
		var r float64
		for p := x.RowPtr[i]; p < x.RowPtr[i+1]; p++ {
			r += x.Val[p] * w[x.ColIdx[p]]
		}
		c := lin.GradCoeff(r, d.Y[i])
		for p := x.RowPtr[i]; p < x.RowPtr[i+1]; p++ {
			j := x.ColIdx[p]
			g[j] += c * x.Val[p]
			h[j] += lin.Curvature() * x.Val[p] * x.Val[p]
			stored[j] = true
		}
	}
	score := make([]float64, x.NumCols)
	for j := range g {
		if !stored[j] {
			continue
		}
		switch {
		case w[j] > 0:
			score[j] = math.Abs(g[j] + nl2*w[j] + nl1)
		case w[j] < 0:
			score[j] = math.Abs(g[j] + nl2*w[j] - nl1)
		default:
			score[j] = math.Max(math.Abs(g[j])-nl1, 0)
		}
		if score[j] > 0 {
			positive++
		}
		order = append(order, int32(j))
	}
	sort.Slice(order, func(a, b int) bool {
		if sa, sb := score[order[a]], score[order[b]]; sa != sb {
			return sa > sb
		}
		return order[a] < order[b]
	})
	return order, positive, g, h
}

// TestGSSelectorMatchesOracle drives the greedy selector through 30 rounds
// of real prox steps, folded in through advance, and checks every pick
// against gsOracle, which shares no code with the index. Each round also
// picks a block 8 wider than the positive scores reach, whose tail is
// zero-scored columns chosen by the tie-break alone.
func TestGSSelectorMatchesOracle(t *testing.T) {
	d, err := dataset.Generate(dataset.SynthConfig{
		Name: "gs-eq", Rows: 150, Cols: 600, NNZPerRow: 6, Noise: 0.1, Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	const l2, l1, k = 0.01, 0.004, 16
	c := CDConfig{BlockSize: k, Mode: "greedy", Step: 0.9}
	if err := c.defaults(d.NumCols()); err != nil {
		t.Fatal(err)
	}
	u := newCDUpdater(d, Composite{Inner: LeastSquares{}, L2: l2, L1: l1}, c)
	n := float64(d.NumRows())
	top := func(order []int32, k int) []int32 {
		return slices.Sorted(slices.Values(order[:k]))
	}
	for round := 0; round < 30; round++ {
		order, positive, g, h := gsOracle(d, LeastSquares{}, n*l2, n*l1, u.w)
		if positive+8 > len(order) {
			t.Fatalf("round %d: %d of %d columns score above 0, no zero-scored tail", round, positive, len(order))
		}
		if got, want := u.sel.pick(positive+8), top(order, positive+8); !slices.Equal(got, want) {
			t.Fatalf("round %d: wide pick %v, oracle %v", round, got, want)
		}
		block := u.sel.pick(k)
		if want := top(order, k); !slices.Equal(block, want) {
			t.Fatalf("round %d: pick %v, oracle %v", round, block, want)
		}
		gb, hb := la.NewVec(k), la.NewVec(k)
		for p, j := range block {
			gb[p], hb[p] = g[j], h[j]
		}
		u.sel.advance(u.proxStep(block, gb, hb, n))
	}
}

// illCondDataset builds the concentrated-signal design greedy selection is
// for: `heavy` strong columns at the END of the index range carry all of
// the label signal (each row stores exactly one heavy entry, so the heavy
// columns are row-disjoint — no intra-block coupling), while a long tail of
// weak columns carries only noise. A cyclic cursor starting at column 0
// burns most of a pass before it ever touches signal; greedy jumps straight
// to it.
func illCondDataset(t testing.TB, rows, cols, heavy int, seed int64) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const tailPerRow = 5
	m := la.NewCSR(rows, cols, rows*(tailPerRow+1))
	hbase := cols - heavy
	w := la.NewVec(cols)
	for j := 0; j < heavy; j++ {
		w[hbase+j] = 1 + float64(j%3)
	}
	for i := 0; i < rows; i++ {
		seen := map[int32]bool{}
		idx := make([]int32, 0, tailPerRow+1)
		for len(idx) < tailPerRow {
			j := int32(rng.Intn(hbase))
			if !seen[j] {
				seen[j] = true
				idx = append(idx, j)
			}
		}
		idx = append(idx, int32(hbase+i%heavy))
		sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
		val := make([]float64, len(idx))
		for k, j := range idx {
			if int(j) >= hbase {
				val[k] = 10
			} else {
				val[k] = 0.3 * rng.NormFloat64()
			}
		}
		if err := m.AppendRow(la.SparseVec{Idx: idx, Val: val, N: cols}); err != nil {
			t.Fatal(err)
		}
	}
	y := la.NewVec(rows)
	m.MatVec(w, y)
	for i := range y {
		y[i] += 0.01 * rng.NormFloat64()
	}
	return &dataset.Dataset{Name: "ill-cond", X: m, Y: y}
}

// TestCDGreedyBeatsCyclic: on the concentrated-signal design, greedy
// selection reaches a strictly lower objective than cyclic order given the
// same round budget — the budget is far too small for a full cyclic pass,
// so cursor order barely touches the heavy coordinates.
func TestCDGreedyBeatsCyclic(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		d := illCondDataset(t, 200, 512, 8, 47)
		loss := Composite{Inner: LeastSquares{}, L2: 0.001}
		run := func(mode string) float64 {
			ac := cdRigOn(t, tr, d, 1, 2)
			p, c := Params{}, CDConfig{BlockSize: 8, Mode: mode, Step: 1}
			p.Loss = loss
			p.Updates = 12 // cyclic needs 64 rounds for one full pass
			p.SnapshotEvery = 4
			res, err := CD(ac, d, p, c, 0)
			if err != nil {
				t.Fatal(err)
			}
			return Objective(d, loss, res.W)
		}
		fGreedy := run("greedy")
		fCyclic := run("cyclic")
		if fGreedy >= fCyclic {
			t.Fatalf("greedy %v did not beat cyclic %v on concentrated signal", fGreedy, fCyclic)
		}
		if fGreedy > fCyclic*0.05 {
			t.Fatalf("greedy %v should be far below cyclic %v at this budget", fGreedy, fCyclic)
		}
	})
}

// TestGSSelectorVerifyContract exercises the driver-side half of the
// correctness contract directly: agreement counts a hit, a disagreement
// triggers one rebuild, and a second consecutive disagreement (the rebuild
// did not cure it) trips the permanent cyclic fallback.
func TestGSSelectorVerifyContract(t *testing.T) {
	d, err := dataset.Generate(dataset.SynthConfig{
		Name: "gs-verify", Rows: 60, Cols: 100, NNZPerRow: 5, Noise: 0.1, Seed: 53,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := la.NewVec(d.NumCols())
	s := newGSSelector(d, LeastSquares{}, 0.01, 0, w)
	block := append([]int32(nil), s.pick(6)...)

	exact := la.NewVec(len(block))
	for k, j := range block {
		exact[k] = s.ix.Score(j)
	}
	if !s.verify(block, exact) || s.rebuilt || s.fallback {
		t.Fatal("exact gradients must verify as a hit")
	}

	bad := exact.Clone()
	bad[0] += 1000
	if !s.verify(block, bad) {
		t.Fatal("first miss must rebuild and stay greedy")
	}
	if !s.rebuilt || s.fallback {
		t.Fatalf("after first miss: rebuilt=%v fallback=%v", s.rebuilt, s.fallback)
	}
	if s.verify(block, bad) {
		t.Fatal("second consecutive miss must trip the fallback")
	}
	if !s.fallback {
		t.Fatal("fallback flag not set")
	}
	if s.verify(block, exact) {
		t.Fatal("fallback must be permanent")
	}
}

// TestCDGreedyResume: a greedy run preempted at a checkpoint and resumed
// must still reach the diagonal design's closed form — the selector
// rebuilds from the restored model rather than replaying draws.
func TestCDGreedyResume(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		a := []float64{1.5, -0.8, 2.0, 0.5, 1.0, -1.2, 0.9, 1.8}
		y := []float64{2.0, 0.1, -1.5, 0.05, 0.8, -0.02, 1.2, 0.03}
		const l2, l1 = 0.1, 0.1
		d := diagDataset(t, a, y)
		n := float64(len(a))

		var cp *Checkpoint
		{
			ac := cdRigOn(t, tr, d, 1, 2)
			p, c := Params{}, CDConfig{BlockSize: 2, Mode: "greedy", Step: 1}
			p.Loss = Composite{Inner: LeastSquares{}, L2: l2, L1: l1}
			p.Updates = 2
			p.SnapshotEvery = 1
			p.CheckpointEvery = 1
			p.OnCheckpoint = func(c *Checkpoint) { cp = c }
			if _, err := CD(ac, d, p, c, 0); err != nil {
				t.Fatal(err)
			}
		}
		if cp == nil {
			t.Fatal("no checkpoint emitted")
		}
		ac := cdRigOn(t, tr, d, 1, 2)
		p, c := Params{}, CDConfig{BlockSize: 2, Mode: "greedy", Step: 1}
		p.Loss = Composite{Inner: LeastSquares{}, L2: l2, L1: l1}
		p.Updates = 8
		p.SnapshotEvery = 2
		p.Resume = cp
		res, err := CD(ac, d, p, c, 0)
		if err != nil {
			t.Fatal(err)
		}
		for j := range a {
			want := SoftThreshold(2*a[j]*y[j], n*l1) / (2*a[j]*a[j] + n*l2)
			if math.Abs(res.W[j]-want) > 1e-9 {
				t.Fatalf("w[%d] = %v, closed form %v after resume", j, res.W[j], want)
			}
		}
	})
}

// TestCDGreedyFallbackCursor: once the verification fallback trips, greedy
// picks come from a deterministic cyclic cursor — consecutive, sorted,
// wrapping blocks keyed off the dispatch counter.
func TestCDGreedyFallbackCursor(t *testing.T) {
	d := illCondDataset(t, 60, 40, 4, 73)
	c := CDConfig{BlockSize: 16, Mode: "greedy"}
	if err := c.defaults(d.NumCols()); err != nil {
		t.Fatal(err)
	}
	u := newCDUpdater(d, Composite{Inner: LeastSquares{}, L2: 0.01}, c)
	u.sel.fallback = true
	seen := map[int32]bool{}
	for r := 0; r < 3; r++ {
		block := u.pickBlock()
		if len(block) != 16 {
			t.Fatalf("pick %d: got %d coordinates, want 16", r, len(block))
		}
		for k := 1; k < len(block); k++ {
			if block[k] <= block[k-1] {
				t.Fatalf("pick %d not sorted ascending: %v", r, block)
			}
		}
		for _, j := range block {
			if int(j) >= d.NumCols() {
				t.Fatalf("pick %d out of range: %v", r, block)
			}
			seen[j] = true
		}
	}
	if len(seen) != 40 { // 3 picks × 16 coordinates wrap the 40 columns (48 mod 40)
		t.Fatalf("cyclic cursor covered %d/40 columns across 3 wrapping picks", len(seen))
	}
}
