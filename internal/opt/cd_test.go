package opt

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/la"
	"repro/internal/rdd"
)

// cdRigOn assembles an engine over a hand-constructed dataset, its workers
// reached over tr.
func cdRigOn(t *testing.T, tr transport, d *dataset.Dataset, workers, parts int) *core.Context {
	t.Helper()
	rctx := rdd.NewContext(newClusterOn(t, tr, workers, nil))
	if _, err := rctx.Distribute(d, parts); err != nil {
		t.Fatal(err)
	}
	ac := core.New(rctx)
	t.Cleanup(ac.Close)
	return ac
}

// diagDataset builds a diagonal design: row j has the single entry a[j] at
// column j with label y[j], so the elastic-net objective decouples per
// coordinate and has the closed-form minimizer
//
//	w*_j = soft(2·a_j·y_j, n·λ1) / (2·a_j² + n·λ2)
//
// (sum units over the n = len(a) rows).
func diagDataset(t *testing.T, a, y []float64) *dataset.Dataset {
	t.Helper()
	n := len(a)
	m := la.NewCSR(n, n, n)
	for j := 0; j < n; j++ {
		if err := m.AppendRow(la.SparseVec{Idx: []int32{int32(j)}, Val: []float64{a[j]}, N: n}); err != nil {
			t.Fatal(err)
		}
	}
	return &dataset.Dataset{Name: "diag", X: m, Y: append(la.Vec(nil), y...)}
}

// TestCDLassoClosedForm pins the prox coordinate step against the
// closed-form elastic-net solution on a diagonal design: with step 1 and
// exact curvature, one cyclic pass lands every coordinate exactly on
//
//	w*_j = soft(2 a_j y_j, nλ1)/(2 a_j² + nλ2),
//
// including the exact zeros the soft-threshold produces.
func TestCDLassoClosedForm(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		a := []float64{1.5, -0.8, 2.0, 0.5, 1.0, -1.2, 0.9, 1.8, -0.4, 0.7, 1.1, -2.2}
		y := []float64{2.0, 0.1, -1.5, 0.05, 0.8, -0.02, 1.2, 0.03, 0.3, -0.9, 0.01, 2.5}
		const l2, l1 = 0.1, 0.2
		d := diagDataset(t, a, y)
		n := float64(len(a))

		ac := cdRigOn(t, tr, d, 2, 4)
		p, c := Params{}, CDConfig{BlockSize: 4, Mode: "cyclic", Step: 1}
		p.Loss = Composite{Inner: LeastSquares{}, L2: l2, L1: l1}
		p.Updates = 6 // two full cyclic passes over 12 coords in blocks of 4
		p.SnapshotEvery = 3
		res, err := CD(ac, d, p, c, 0)
		if err != nil {
			t.Fatal(err)
		}

		zeros := 0
		for j := range a {
			want := SoftThreshold(2*a[j]*y[j], n*l1) / (2*a[j]*a[j] + n*l2)
			if math.Abs(res.W[j]-want) > 1e-9 {
				t.Fatalf("w[%d] = %v, closed form %v", j, res.W[j], want)
			}
			if want == 0 {
				if res.W[j] != 0 {
					t.Fatalf("w[%d] = %v, want exact zero", j, res.W[j])
				}
				zeros++
			}
		}
		if zeros == 0 {
			t.Fatal("test design produced no zero coordinates — ℓ1 threshold never exercised")
		}
	})
}

// TestCDIncrementalMatchesRecompute pins the incremental residual
// maintenance: the engine run (per-partition residuals advanced by the
// round-delta broadcast) must match a driver-side reference that
// recomputes r = X·w from scratch every round, to rounding.
func TestCDIncrementalMatchesRecompute(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		cfg := dataset.SynthConfig{
			Name: "cd-eq", Rows: 200, Cols: 512, NNZPerRow: 6, Noise: 0.1, Seed: 29,
		}
		d, err := dataset.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		const bs, updates = 16, 40
		const l2, l1, step = 0.01, 0.005, 0.8

		ac := cdRigOn(t, tr, d, 1, 3)
		p, c := Params{}, CDConfig{BlockSize: bs, Mode: "cyclic", Step: step}
		p.Loss = Composite{Inner: LeastSquares{}, L2: l2, L1: l1}
		p.Updates = updates
		p.SnapshotEvery = 10
		res, err := CD(ac, d, p, c, 0)
		if err != nil {
			t.Fatal(err)
		}

		// reference: same cyclic blocks, same prox step, residuals recomputed
		lin := LeastSquares{}
		cols, n := d.NumCols(), float64(d.NumRows())
		cv := la.NewColView(d.X)
		w := la.NewVec(cols)
		r := la.NewVec(d.NumRows())
		for round := 0; round < updates; round++ {
			d.X.MatVec(w, r) // full recompute — the thing the engine avoids
			pos := round * bs % cols
			for k := 0; k < bs; k++ {
				j := int32(pos + k)
				rows, vals := cv.Col(j)
				var g, h float64
				for t, i := range rows {
					g += lin.GradCoeff(r[i], d.Y[i]) * vals[t]
					h += 2 * vals[t] * vals[t]
				}
				den := h + n*l2
				if den <= 0 {
					continue
				}
				tau := step / den
				w[j] = SoftThreshold(w[j]-tau*(g+n*l2*w[j]), tau*n*l1)
			}
		}
		if !la.Equal(res.W, w, 1e-9) {
			t.Fatal("incremental CD diverged from full-recompute reference")
		}
	})
}

// TestCDRandomModeDeterministic: the seeded random block sequence makes
// runs bit-reproducible, and the solve actually reduces the composite
// objective.
func TestCDRandomModeDeterministic(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		run := func() la.Vec {
			r := newRigOn(t, tr, 1, 2, nil, denseCfg())
			p, c := Params{}, CDConfig{BlockSize: 4, Mode: "random", Seed: 5}
			p.Loss = Composite{Inner: LeastSquares{}, L2: 0.02, L1: 0.01}
			p.Updates = 12
			p.SnapshotEvery = 4
			res, err := CD(r.ac, r.d, p, c, 0)
			if err != nil {
				t.Fatal(err)
			}
			f0 := Objective(r.d, p.Loss, la.NewVec(r.d.NumCols()))
			if f := Objective(r.d, p.Loss, res.W); f >= f0 {
				t.Fatalf("CD did not reduce the composite objective: %v → %v", f0, f)
			}
			return res.W
		}
		if !la.Equal(run(), run(), 0) {
			t.Fatal("seeded random-mode CD runs diverged")
		}
	})
}

// TestCDLogisticConverges exercises the logistic curvature bound.
func TestCDLogisticConverges(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		d, err := dataset.Generate(dataset.SynthConfig{
			Name: "cd-logit", Rows: 200, Cols: 16, NNZPerRow: 8, Noise: 0.05, Binary: true, Seed: 13,
		})
		if err != nil {
			t.Fatal(err)
		}
		ac := cdRigOn(t, tr, d, 2, 4)
		loss := Composite{Inner: Logistic{}, L2: 0.01, L1: 0.002}
		p, c := Params{}, CDConfig{BlockSize: 8}
		p.Loss = loss
		p.Updates = 30
		p.SnapshotEvery = 10
		res, err := CD(ac, d, p, c, 0)
		if err != nil {
			t.Fatal(err)
		}
		f0 := Objective(d, loss, la.NewVec(d.NumCols()))
		if f := Objective(d, loss, res.W); f >= f0*0.9 {
			t.Fatalf("logistic CD barely moved: %v → %v", f0, f)
		}
	})
}

// TestCDRejectsUnknownObjective: a loss without a linear core or curvature
// bound fails fast instead of looping.
func TestCDRejectsUnknownObjective(t *testing.T) {
	r := newRig(t, 1, 2, nil)
	p, c := Params{}, CDConfig{}
	p.Loss = Composite{Inner: badLoss{}, L2: 0.1}
	p.Updates = 4
	if _, err := CD(r.ac, r.d, p, c, 0); err == nil {
		t.Fatal("CD accepted an objective it cannot decompose")
	}
}

// badLoss is a non-linear stand-in.
type badLoss struct{}

func (badLoss) Value(la.SparseVec, float64, la.Vec) float64   { return 0 }
func (badLoss) AddGrad(la.SparseVec, float64, la.Vec, la.Vec) {}
func (badLoss) Name() string                                  { return "bad" }
