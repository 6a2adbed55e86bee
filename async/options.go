package async

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/straggler"
)

// Barrier is a barrier-control predicate over the STAT table (the paper's
// Listing 2 interface); ASP, BSP and SSP are provided and any custom
// predicate works.
type Barrier = core.BarrierFunc

// Filter selects which available workers receive tasks once the barrier
// opens; nil means all of them.
type Filter = core.WorkerFilter

// ASP is the fully asynchronous barrier: always open.
func ASP() Barrier { return core.ASP() }

// BSP is the bulk-synchronous barrier: open only when every live worker is
// available.
func BSP() Barrier { return core.BSP() }

// SSP is the stale-synchronous barrier with staleness threshold s.
func SSP(s int64) Barrier { return core.SSP(s) }

// MinAvailable opens when at least ⌊beta·P⌋ workers are available.
func MinAvailable(beta float64) Barrier { return core.MinAvailable(beta) }

// MaxAvgTaskTime admits only workers whose average task time is below the
// bound — a completion-time-based worker filter.
func MaxAvgTaskTime(bound time.Duration) Filter { return core.MaxAvgTaskTime(bound) }

// PSP admits each available worker with probability p (probabilistic
// synchronous parallel); the rng must be owned by the driver goroutine.
func PSP(p float64, rng *rand.Rand) Filter { return core.PSP(p, rng) }

// config collects the engine settings the functional options mutate.
type config struct {
	workers    int
	seed       int64
	partitions int
	transport  Transport
	barrier    Barrier
	delay      straggler.Model
	minTask    time.Duration
}

func defaultConfig() config {
	return config{
		workers:   4,
		seed:      1,
		transport: Local(),
	}
}

// Option configures an Engine at construction time.
type Option func(*config) error

// WithWorkers sets the worker-pool size (default 4).
func WithWorkers(n int) Option {
	return func(c *config) error {
		if n <= 0 {
			return fmt.Errorf("async: WithWorkers(%d): need at least one worker", n)
		}
		c.workers = n
		return nil
	}
}

// WithSeed sets the base seed; worker w derives its stream from seed+w.
func WithSeed(seed int64) Option {
	return func(c *config) error {
		c.seed = seed
		return nil
	}
}

// WithPartitions sets how many data partitions Distribute creates
// (default: 2 × workers).
func WithPartitions(n int) Option {
	return func(c *config) error {
		if n <= 0 {
			return fmt.Errorf("async: WithPartitions(%d): need at least one partition", n)
		}
		c.partitions = n
		return nil
	}
}

// WithTransport selects how the engine reaches its workers: Local()
// in-process goroutines (default) or TCP(addr) real sockets.
func WithTransport(t Transport) Option {
	return func(c *config) error {
		if t == nil {
			return fmt.Errorf("async: WithTransport(nil)")
		}
		c.transport = t
		return nil
	}
}

// WithBarrier sets the engine's default barrier-control policy, applied to
// every Solve whose options leave Barrier nil (solver default is ASP).
func WithBarrier(b Barrier) Option {
	return func(c *config) error {
		if b == nil {
			return fmt.Errorf("async: WithBarrier(nil)")
		}
		c.barrier = b
		return nil
	}
}

// WithStraggler injects a delay model into local workers (TCP workers own
// their delay model at ServeWorker time).
func WithStraggler(m straggler.Model) Option {
	return func(c *config) error {
		c.delay = m
		return nil
	}
}

// WithMinTaskTime pads every local task to at least d before the straggler
// model applies, so delay intensities act on a stable task time.
func WithMinTaskTime(d time.Duration) Option {
	return func(c *config) error {
		if d < 0 {
			return fmt.Errorf("async: WithMinTaskTime(%v): negative duration", d)
		}
		c.minTask = d
		return nil
	}
}
