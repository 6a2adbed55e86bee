package opt

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/la"
)

// FuzzRowLoop checks the row loops of the gradient kernels on random small
// CSR partitions, seeds, sampling rates in (0, 1] and both losses: gradSweep,
// and svrg's use of sagaSweep — a tableFill at an anchor w̃, then a
// tableRead at w. The dense and the sparse accumulator produce bit-identical
// sums (the fill's too), and both match a textbook oracle — plain nested
// loops over the CSR arrays and the losses' formulas written out — to 1e-12
// relative to the summed terms' magnitude.
func FuzzRowLoop(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(9), uint8(80), uint8(1), uint16(30000), false, false)
	f.Add(int64(2), uint8(40), uint8(60), uint8(10), uint8(3), uint16(65535), true, false)
	f.Add(int64(3), uint8(7), uint8(3), uint8(255), uint8(2), uint16(500), true, true)
	f.Add(int64(4), uint8(25), uint8(30), uint8(40), uint8(0), uint16(65535), false, true)
	f.Fuzz(func(t *testing.T, seed int64, rows, cols, density, nparts uint8, fracBits uint16, logistic, withTable bool) {
		nr, nc := 1+int(rows%48), 1+int(cols%64)
		frac := (float64(fracBits) + 1) / 65536 // (0, 1]
		rng := rand.New(rand.NewSource(seed))
		x := la.NewCSR(nr, nc, 0)
		y := la.NewVec(nr)
		for i := 0; i < nr; i++ {
			var idx []int32
			var val []float64
			for j := 0; j < nc; j++ {
				if rng.Intn(256) < int(density) {
					idx = append(idx, int32(j))
					val = append(val, rng.NormFloat64())
				}
			}
			if err := x.AppendRow(la.SparseVec{Idx: idx, Val: val, N: nc}); err != nil {
				t.Fatal(err)
			}
			y[i] = rng.NormFloat64()
			if logistic {
				y[i] = float64(1 - 2*rng.Intn(2))
			}
		}
		w := la.NewVec(nc)
		for j := range w {
			w[j] = rng.NormFloat64()
		}
		var anchor la.Vec
		if withTable {
			anchor = la.NewVec(nc)
			for j := range anchor {
				anchor[j] = rng.NormFloat64()
			}
		}
		var loss Loss = LeastSquares{}
		coef := func(dot, y float64) float64 { return 2 * (dot - y) }
		if logistic {
			loss = Logistic{}
			coef = func(dot, y float64) float64 { return -y / (1 + math.Exp(y*dot)) }
		}

		parts, err := dataset.Split(&dataset.Dataset{Name: "fuzz", X: x, Y: y}, 1+int(nparts)%min(3, nr))
		if err != nil {
			t.Fatal(err)
		}
		env := cluster.NewEnv(0, 1, nil)
		idx := make([]int, 0, len(parts))
		for _, p := range parts {
			if err := env.InstallPartition(p); err != nil {
				t.Fatal(err)
			}
			idx = append(idx, p.Index)
		}

		// sweep runs one loop with both accumulators over the rows s draws
		// and checks that they agree bit for bit
		sweep := func(s cluster.RowSampler, loop func(s *cluster.RowSampler, dense bool, acc rowAccum) (int, error)) (la.Vec, int) {
			t.Helper()
			dense := la.NewVec(nc)
			sd := s
			nd, err := loop(&sd, true, denseAccum(dense))
			if err != nil {
				t.Fatal(err)
			}
			acc := la.NewDeltaAccum(nc)
			ns, err := loop(&s, false, acc)
			if err != nil {
				t.Fatal(err)
			}
			compact := acc.Compact()
			sparse := densify(compact.N, compact)
			if nd != ns {
				t.Fatalf("dense loop sampled %d rows, sparse %d", nd, ns)
			}
			for j := range dense {
				if math.Float64bits(dense[j]) != math.Float64bits(sparse[j]) {
					t.Fatalf("coordinate %d: dense %v, sparse %v", j, dense[j], sparse[j])
				}
			}
			return dense, nd
		}
		var dense la.Vec
		var nd int
		if withTable {
			// each accumulator fills and reads its own table
			tables := map[bool]sagaCoefs{true: {}, false: {}}
			sweep(cluster.NewRowSampler(seed, 1), func(s *cluster.RowSampler, d bool, acc rowAccum) (int, error) {
				return sagaSweep(env, tables[d], tableFill, 1, loss, idx, s, anchor, acc)
			})
			dense, nd = sweep(cluster.NewRowSampler(seed, frac), func(s *cluster.RowSampler, d bool, acc rowAccum) (int, error) {
				return sagaSweep(env, tables[d], tableRead, 1, loss, idx, s, w, acc)
			})
		} else {
			dense, nd = sweep(cluster.NewRowSampler(seed, frac), func(s *cluster.RowSampler, _ bool, acc rowAccum) (int, error) {
				return gradSweep(env, loss, idx, s, w, acc)
			})
		}

		// the oracle: the same sampled rows, walked the textbook way
		want := make([]float64, nc)
		scale := make([]float64, nc) // Σ|c·x_j|, the size of the summed terms
		n := 0
		s := cluster.NewRowSampler(seed, frac)
		for _, p := range parts {
			m := p.NumRows()
			for r := s.Next(0, m); r < m; r = s.Next(r+1, m) {
				lo, hi := p.X.RowPtr[r], p.X.RowPtr[r+1]
				var dot, dotA float64
				for k := lo; k < hi; k++ {
					dot += p.X.Val[k] * w[p.X.ColIdx[k]]
					if anchor != nil {
						dotA += p.X.Val[k] * anchor[p.X.ColIdx[k]]
					}
				}
				c := coef(dot, p.Y[r])
				if anchor != nil {
					c -= coef(dotA, p.Y[r])
				}
				for k := lo; k < hi; k++ {
					want[p.X.ColIdx[k]] += c * p.X.Val[k]
					scale[p.X.ColIdx[k]] += math.Abs(c * p.X.Val[k])
				}
				n++
			}
		}
		if n != nd {
			t.Fatalf("loop sampled %d rows, oracle %d", nd, n)
		}
		for j := range want {
			if math.Abs(dense[j]-want[j]) > 1e-12*(1+scale[j]) {
				t.Fatalf("coordinate %d: loop %v, oracle %v", j, dense[j], want[j])
			}
		}
	})
}
