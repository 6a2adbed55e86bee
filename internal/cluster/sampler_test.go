package cluster

import (
	"math"
	"testing"
)

// sampleRows walks one task's partitions of the given sizes with a sampler
// the way the kernels do, and returns the sampled rows as task-global
// offsets.
func sampleRows(seed int64, frac float64, sizes []int) []int {
	var out []int
	s := NewRowSampler(seed, frac)
	base := 0
	for _, n := range sizes {
		for r := s.Next(0, n); r < n; r = s.Next(r+1, n) {
			out = append(out, base+r)
		}
		base += n
	}
	return out
}

// TestRowSamplerIsBernoulli checks the sampler against the distribution it
// must draw, not against another implementation: over 20 000 tasks seeded
// as the core seeds them (dispatch sequence · 1 000 003 + worker), each row
// is included with probability frac, the sample count has the binomial's
// mean and variance, and tasks whose seeds differ in one low bit overlap
// only as much as independent draws do (frac²·n rows). Every bound is five
// standard errors.
func TestRowSamplerIsBernoulli(t *testing.T) {
	const (
		seqs, workers = 10_000, 2
		frac          = 0.05
	)
	sizes := []int{120, 80} // a task of two partitions
	n := sizes[0] + sizes[1]
	tasks := float64(seqs * workers)
	hits := make([]int, n)
	var sum, sumSq, overlap float64
	pairs := 0
	for seq := int64(1); seq <= seqs; seq++ {
		var prev map[int]bool
		for w := int64(0); w < workers; w++ {
			rows := sampleRows(seq*1_000_003+w, frac, sizes)
			cur := map[int]bool{}
			for k, r := range rows {
				if r < 0 || r >= n || (k > 0 && r <= rows[k-1]) {
					t.Fatalf("seed %d: rows %v not strictly increasing in [0, %d)", seq*1_000_003+w, rows, n)
				}
				hits[r]++
				cur[r] = true
			}
			c := float64(len(rows))
			sum += c
			sumSq += c * c
			if prev != nil {
				for r := range cur {
					if prev[r] {
						overlap++
					}
				}
				pairs++
			}
			prev = cur
		}
	}
	rowSE := math.Sqrt(frac * (1 - frac) / tasks)
	for r, h := range hits {
		if got := float64(h) / tasks; math.Abs(got-frac) > 5*rowSE {
			t.Errorf("row %d included in %.4f of tasks, want %.4f ± %.4f", r, got, frac, 5*rowSE)
		}
	}
	mean := sum / tasks
	variance := sumSq/tasks - mean*mean
	wantVar := float64(n) * frac * (1 - frac)
	if se := math.Sqrt(wantVar / tasks); math.Abs(mean-float64(n)*frac) > 5*se {
		t.Errorf("mean sample count %.4f, want %.4f ± %.4f", mean, float64(n)*frac, 5*se)
	}
	if se := wantVar * math.Sqrt(2/tasks); math.Abs(variance-wantVar) > 5*se {
		t.Errorf("sample count variance %.4f, want %.4f ± %.4f", variance, wantVar, 5*se)
	}
	wantOverlap := float64(n) * frac * frac
	if se := math.Sqrt(wantOverlap / float64(pairs)); math.Abs(overlap/float64(pairs)-wantOverlap) > 5*se {
		t.Errorf("consecutive seeds share %.4f rows, want %.4f ± %.4f (independent draws)",
			overlap/float64(pairs), wantOverlap, 5*se)
	}
}

// TestRowSamplerEdges: frac = 1 takes every row, and fractions at the ends
// of (0, 1) neither panic nor overflow, even over the widest index range.
func TestRowSamplerEdges(t *testing.T) {
	if rows := sampleRows(7, 1, []int{5, 3}); len(rows) != 8 {
		t.Fatalf("frac 1 sampled %v, want all 8 rows", rows)
	}
	for _, n := range []int{1000, math.MaxInt} {
		for seed := int64(0); seed < 100; seed++ {
			s := NewRowSampler(seed, 1e-12)
			if r := s.Next(0, n); r < 0 || r > n {
				t.Fatalf("frac 1e-12, n %d: Next returned %d", n, r)
			}
		}
	}
	s := NewRowSampler(3, 1e-12)
	if r := s.Next(0, 1000); r != 1000 {
		t.Errorf("frac 1e-12 sampled row %d of 1000", r)
	}
	if rows := sampleRows(3, 1-1e-12, []int{1000}); len(rows) != 1000 {
		t.Errorf("frac 1 − 1e-12 sampled %d of 1000 rows", len(rows))
	}
}

// FuzzRowSampler: for any seed, fraction and range, Next returns rows in
// [i, n] that strictly increase, and the same seed returns the same rows.
func FuzzRowSampler(f *testing.F) {
	f.Add(int64(1), 0.0008, uint16(0), uint16(10_000))
	f.Add(int64(-7), 1.0, uint16(3), uint16(40))
	f.Add(int64(1_000_003), 1e-12, uint16(0), uint16(65_535))
	f.Add(int64(0), 1-1e-12, uint16(10), uint16(5))
	f.Fuzz(func(t *testing.T, seed int64, frac float64, start, span uint16) {
		i, n := int(start), int(start)+int(span)
		walk := func() []int {
			var out []int
			s := NewRowSampler(seed, frac)
			for r := s.Next(i, n); ; r = s.Next(r+1, n) {
				if r < i || r > n {
					t.Fatalf("Next returned %d outside [%d, %d]", r, i, n)
				}
				if len(out) > 0 && r <= out[len(out)-1] {
					t.Fatalf("rows %v then %d: not strictly increasing", out, r)
				}
				if r == n {
					return out
				}
				out = append(out, r)
			}
		}
		a, b := walk(), walk()
		if len(a) != len(b) {
			t.Fatalf("same seed sampled %d then %d rows", len(a), len(b))
		}
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("same seed: row %d is %d then %d", k, a[k], b[k])
			}
		}
	})
}
