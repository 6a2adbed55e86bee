package opt

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/la"
)

func TestTopKBasics(t *testing.T) {
	g := la.Vec{0.1, -5, 0, 3, -0.2}
	s := TopK(g, 2)
	if s.NNZ() != 2 {
		t.Fatalf("nnz = %d", s.NNZ())
	}
	d := s.Dense()
	if d[1] != -5 || d[3] != 3 {
		t.Fatalf("kept %v", d)
	}
	if d[0] != 0 || d[2] != 0 || d[4] != 0 {
		t.Fatalf("dropped coords nonzero: %v", d)
	}
}

func TestTopKEdgeCases(t *testing.T) {
	g := la.Vec{1, 2, 3}
	if TopK(g, 0).NNZ() != 0 {
		t.Fatal("k=0 kept entries")
	}
	if TopK(g, 10).NNZ() != 3 {
		t.Fatal("k>len dropped entries")
	}
	zero := la.NewVec(4)
	if TopK(zero, 2).NNZ() != 0 {
		t.Fatal("zeros kept")
	}
}

// TestPropTopKKeepsLargest: every kept coordinate has magnitude ≥ every
// dropped one, indices are sorted, and at most k entries survive.
func TestPropTopKKeepsLargest(t *testing.T) {
	f := func(raw []float64, kRaw uint8) bool {
		g := make(la.Vec, len(raw))
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 1
			}
			g[i] = math.Mod(x, 1e6)
		}
		k := int(kRaw%16) + 1
		s := TopK(g, k)
		if s.NNZ() > k {
			return false
		}
		kept := map[int32]bool{}
		minKept := math.Inf(1)
		prev := int32(-1)
		for i, j := range s.Idx {
			if j <= prev {
				return false // unsorted
			}
			prev = j
			kept[j] = true
			if a := math.Abs(s.Val[i]); a < minKept {
				minKept = a
			}
			if s.Val[i] != g[j] {
				return false // value altered
			}
		}
		if s.NNZ() == k {
			for j, v := range g {
				if !kept[int32(j)] && math.Abs(v) > minKept {
					return false // dropped something larger than a kept entry
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTopKAllocs pins the selection path's budget: with the scratch pair
// pooled, a steady-state call pays only the two result-slice copies.
func TestTopKAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(19))
	g := make(la.Vec, 8192)
	for i := range g {
		g[i] = rng.NormFloat64()
	}
	TopK(g, 128) // warm the scratch pool
	if a := testing.AllocsPerRun(50, func() { TopK(g, 128) }); a > 2 {
		t.Errorf("TopK allocates %v per run, want ≤ 2 (result slices)", a)
	}
}

func BenchmarkTopK(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	g := make(la.Vec, 1<<17)
	for i := range g {
		g[i] = rng.NormFloat64()
	}
	k := len(g) / 100
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TopK(g, k)
	}
}
