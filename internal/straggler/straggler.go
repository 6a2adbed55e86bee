// Package straggler implements the delay models the paper uses to evaluate
// robustness to slow workers (§6.3):
//
//   - ControlledDelay (the "CDS" experiments): a single designated worker is
//     delayed by a fixed intensity, expressed as a percentage of the nominal
//     task time — a 100% delay means the worker runs at half speed, exactly
//     as the paper's sleep-based straggler.
//   - ProductionCluster (the "PCS" experiments): the empirical straggler
//     distribution from Microsoft and Google production clusters reported in
//     the paper — about 25% of machines straggle; of those, 80% are delayed
//     uniformly between 150% and 250% of average task time, and the
//     remaining 20% are long-tail workers delayed between 250% and 10×.
//
// All models are deterministic given their seed, matching the paper's
// "randomized delay seed is fixed across executions" protocol.
package straggler

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Model yields the extra delay a worker must add to a task whose nominal
// (undelayed) duration is base. Implementations must be safe for concurrent
// use: every worker goroutine calls Delay on its own tasks.
type Model interface {
	// Delay returns the extra time worker w sleeps for one task of nominal
	// duration base. Zero means the worker is not a straggler.
	Delay(worker int, base time.Duration) time.Duration
	// Name identifies the model in experiment output.
	Name() string
}

// None is the no-straggler model.
type None struct{}

// Delay always returns zero.
func (None) Delay(int, time.Duration) time.Duration { return 0 }

// Name implements Model.
func (None) Name() string { return "none" }

// ControlledDelay delays a single worker by a fixed fraction of the nominal
// task time. Intensity 1.0 ("100% delay") makes the worker half speed.
type ControlledDelay struct {
	Worker    int     // which worker straggles
	Intensity float64 // extra time as a fraction of the nominal task time
}

// Delay implements Model.
func (c ControlledDelay) Delay(worker int, base time.Duration) time.Duration {
	if worker != c.Worker || c.Intensity <= 0 {
		return 0
	}
	return time.Duration(float64(base) * c.Intensity)
}

// Name implements Model.
func (c ControlledDelay) Name() string {
	return fmt.Sprintf("cds-%.0f%%", c.Intensity*100)
}

// band is a per-worker delay band; each task samples its delay factor
// uniformly from [lo, hi] (as a fraction of nominal task time).
type band struct{ lo, hi float64 }

// ProductionCluster reproduces the production-cluster straggler pattern.
// Construct with NewProductionCluster.
type ProductionCluster struct {
	bands []band

	mu  sync.Mutex
	rng *rand.Rand
}

// Fractions from the paper: 25% of machines straggle, 80% of stragglers are
// "uniform" (150–250% delay) and 20% are long-tail (250% to 10×).
const (
	pcsStragglerFrac = 0.25
	pcsLongTailFrac  = 0.20
	pcsUniformLo     = 1.5
	pcsUniformHi     = 2.5
	pcsLongTailLo    = 2.5
	pcsLongTailHi    = 10.0
)

// NewProductionCluster builds the PCS model for n workers with a fixed seed.
// For n=32 this yields the paper's configuration: 6 uniform stragglers and
// 2 long-tail workers.
func NewProductionCluster(n int, seed int64) (*ProductionCluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("straggler: non-positive worker count %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	nStraggler := int(pcsStragglerFrac*float64(n) + 0.5)
	nLongTail := int(pcsLongTailFrac*float64(nStraggler) + 0.5)
	bands := make([]band, n)
	// choose straggler workers deterministically via a seeded permutation
	perm := rng.Perm(n)
	for i := 0; i < nStraggler; i++ {
		w := perm[i]
		if i < nLongTail {
			bands[w] = band{pcsLongTailLo, pcsLongTailHi}
		} else {
			bands[w] = band{pcsUniformLo, pcsUniformHi}
		}
	}
	return &ProductionCluster{bands: bands, rng: rng}, nil
}

// Delay implements Model. Non-straggler workers get zero; straggler workers
// sample a delay factor from their band for every task.
func (p *ProductionCluster) Delay(worker int, base time.Duration) time.Duration {
	if worker < 0 || worker >= len(p.bands) {
		return 0
	}
	b := p.bands[worker]
	if b.hi == 0 {
		return 0
	}
	p.mu.Lock()
	f := b.lo + p.rng.Float64()*(b.hi-b.lo)
	p.mu.Unlock()
	return time.Duration(float64(base) * f)
}

// Name implements Model.
func (p *ProductionCluster) Name() string { return "pcs" }
