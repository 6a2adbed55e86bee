package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/metrics"
)

// quantile returns the q-quantile of xs (linear interpolation between the
// two nearest order statistics). xs need not be sorted; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean is the arithmetic mean of xs, 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartile of xs.
func quartiles(xs []float64) (q1, q3 float64) {
	return quantile(xs, 0.25), quantile(xs, 0.75)
}

// tailPercentile picks the highest of p99.9, p99, p95, p90 that is at most
// the wanted one and still has at least ten samples beyond it, falling back
// to the median: a percentile with fewer samples above it is set by a handful
// of outliers and does not repeat.
func tailPercentile(n int, want float64) float64 {
	for _, p := range []float64{0.999, 0.99, 0.95, 0.90} {
		if p <= want && float64(n)*(1-p) >= 10-1e-9 { // 100·(1−0.9) is 9.999…98 in floating point
			return p
		}
	}
	return 0.5
}

// timeToError reads the time at which a convergence trace first reaches
// target, interpolating between the two bracketing snapshots on a
// logarithmic error axis (suboptimality decays geometrically between
// snapshots, so a linear read would be biased late). ok is false when the
// trace never gets there.
func timeToError(pts []metrics.TracePoint, target float64) (time.Duration, bool) {
	for i, p := range pts {
		if !(p.Error <= target) {
			continue
		}
		if i == 0 {
			return p.Time, true
		}
		prev := pts[i-1]
		frac := 1.0
		if prev.Error > 0 && p.Error > 0 && target > 0 && prev.Error > p.Error {
			frac = (math.Log(prev.Error) - math.Log(target)) / (math.Log(prev.Error) - math.Log(p.Error))
		} else if prev.Error > p.Error {
			frac = (prev.Error - target) / (prev.Error - p.Error)
		}
		return prev.Time + time.Duration(frac*float64(p.Time-prev.Time)), true
	}
	return 0, false
}

// updateLatenciesMS turns a trace into per-update latencies: each window
// between two snapshots contributes its wall time divided by the updates it
// covers, in milliseconds.
func updateLatenciesMS(pts []metrics.TracePoint) []float64 {
	var out []float64
	for i := 1; i < len(pts); i++ {
		du := pts[i].Updates - pts[i-1].Updates
		if du <= 0 {
			continue
		}
		dt := pts[i].Time - pts[i-1].Time
		out = append(out, dt.Seconds()*1e3/float64(du))
	}
	return out
}

// relDiff is how far b is from a, either way, as a share of a.
func relDiff(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return math.Abs(b-a) / math.Abs(a)
}
