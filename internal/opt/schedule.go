package opt

import (
	"fmt"
	"math"
)

// Schedule yields the step size for the k-th model update (k starts at 0).
type Schedule interface {
	Alpha(k int64) float64
	Name() string
}

// Constant is a fixed step size (the paper's SAGA tuning).
type Constant struct{ A float64 }

// Alpha implements Schedule.
func (c Constant) Alpha(int64) float64 { return c.A }

// Name implements Schedule.
func (c Constant) Name() string { return fmt.Sprintf("const(%g)", c.A) }

// InvSqrt is Mllib's decay: α_k = A/√(k+1) (the paper's SGD tuning, §6.1).
type InvSqrt struct{ A float64 }

// Alpha implements Schedule.
func (s InvSqrt) Alpha(k int64) float64 { return s.A / math.Sqrt(float64(k+1)) }

// Name implements Schedule.
func (s InvSqrt) Name() string { return fmt.Sprintf("invsqrt(%g)", s.A) }

// AsyncDecay is the decaying schedule for asynchronous variants: the
// paper's heuristic divides the synchronous initial step by the worker
// count, and because each synchronous round corresponds to ~P asynchronous
// updates, the decay index is stretched by P as well:
//
//	α_j = (A/P) / √(j/P + 1)
//
// Without the stretch, a 1/√t schedule indexed by raw async updates decays
// √P too fast and the asynchronous run stalls.
type AsyncDecay struct {
	A       float64 // synchronous initial step
	Workers float64 // P
}

// Alpha implements Schedule.
func (s AsyncDecay) Alpha(k int64) float64 {
	return s.A / s.Workers / math.Sqrt(float64(k)/s.Workers+1)
}

// Name implements Schedule.
func (s AsyncDecay) Name() string { return fmt.Sprintf("async(%g,P=%g)", s.A, s.Workers) }

// Scaled divides a base schedule by a constant factor — the paper's
// heuristic of running asynchronous variants at (sync step)/(num workers).
type Scaled struct {
	Base   Schedule
	Factor float64
}

// Alpha implements Schedule.
func (s Scaled) Alpha(k int64) float64 { return s.Base.Alpha(k) / s.Factor }

// Name implements Schedule.
func (s Scaled) Name() string { return fmt.Sprintf("%s/%g", s.Base.Name(), s.Factor) }

// StalenessAdapt applies the Listing 1 modulation: the effective step for a
// result with staleness τ is α/max(1, τ) — the staleness-dependent learning
// rate technique of Zhang et al. the paper demonstrates.
func StalenessAdapt(alpha float64, staleness int64) float64 {
	if staleness > 1 {
		return alpha / float64(staleness)
	}
	return alpha
}
