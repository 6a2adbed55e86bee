package cluster

import (
	"math"
	"math/rand/v2"
)

// RowSampler draws a Bernoulli(frac) subset of a task's partition rows —
// every row included independently with probability frac, Spark's
// sample(false, frac) — at a cost proportional to the rows it keeps: it
// jumps from one sampled row to the next by a geometric skip instead of
// flipping a coin per row, and seeding it is O(1). It is a value type and
// never allocates.
//
// Reproducibility contract: the same seed, frac and sequence of Next calls
// select the same rows on any worker, whatever ran there before.
type RowSampler struct {
	pcg  rand.PCG
	frac float64
	logq float64 // ln(1 − frac), < 0 when 0 < frac < 1
}

// NewRowSampler seeds a sampler for one task. The task seed goes through
// SplitMix64 before it seeds the PCG, because the core hands out seeds that
// differ only in their low bits.
func NewRowSampler(seed int64, frac float64) RowSampler {
	s1 := splitMix64(uint64(seed))
	var s RowSampler
	s.pcg.Seed(s1, splitMix64(s1))
	s.frac = frac
	s.logq = math.Log1p(-frac)
	return s
}

// Next returns the first sampled row in [i, n), or n when there is none.
// Each sampled row costs one draw: the skip to it is ⌊ln(1−U)/ln(1−frac)⌋,
// geometric with success probability frac. Skips do not carry over between
// calls, so a task walks each of its partitions with the same sampler:
//
//	for r := s.Next(0, n); r < n; r = s.Next(r+1, n) { … }
func (s *RowSampler) Next(i, n int) int {
	if i >= n || s.frac <= 0 {
		return n
	}
	if s.frac >= 1 {
		return i
	}
	// 1 − U from 53 random bits, in (0, 1]
	oneMinusU := float64(s.pcg.Uint64()>>11+1) * 0x1p-53
	gap := math.Log(oneMinusU) / s.logq
	// compare in float64: at a tiny frac the gap can exceed any int (and a
	// NaN frac samples nothing)
	if !(gap < float64(n-i)) {
		return n
	}
	return i + int(gap)
}

func splitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
