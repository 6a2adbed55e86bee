package core

import (
	"math/rand"
	"time"
)

// BarrierFunc is a barrier-control predicate over the STAT table: dispatch
// may proceed only when it returns true. This is the paper's Listing 2
// interface; ASP, BSP and SSP are provided and users can define their own
// (e.g. over AvgTaskTime, as in adaptive synchronous parallel strategies).
type BarrierFunc func(Stat) bool

// WorkerFilter selects which available workers receive tasks once the
// barrier opens. nil means "all available workers".
type WorkerFilter func(WorkerStat) bool

// ASP is the fully asynchronous barrier: always open
// (f: STAT.foreach(true)).
func ASP() BarrierFunc {
	return func(Stat) bool { return true }
}

// BSP is the bulk-synchronous barrier: open only when every live worker is
// available (f: STAT.foreach(Available_Workers == P)).
func BSP() BarrierFunc {
	return func(s Stat) bool { return s.AliveWorkers > 0 && s.AvailableWorkers == s.AliveWorkers }
}

// SSP is the stale-synchronous barrier with staleness threshold s
// (f: STAT.foreach(MAX_Staleness < s)).
func SSP(s int64) BarrierFunc {
	return func(st Stat) bool { return st.MaxStaleness < s }
}

// MinAvailable opens when at least ⌊beta·P⌋ workers are available — the
// bounded-staleness strategy used in the paper's ASGD walkthrough (§5.1).
func MinAvailable(beta float64) BarrierFunc {
	return func(s Stat) bool {
		need := int(beta * float64(s.AliveWorkers))
		if need < 1 {
			need = 1
		}
		return s.AvailableWorkers >= need
	}
}

// PSP is a probabilistic synchronous parallel filter in the style the paper
// cites ([65], Wang et al.): each available worker is admitted for dispatch
// with probability p, trading synchronization cost against gradient
// freshness stochastically. The rng must be owned by the driver goroutine.
func PSP(p float64, rng *rand.Rand) WorkerFilter {
	return func(WorkerStat) bool { return rng.Float64() < p }
}

// MaxAvgTaskTime admits only workers whose average task time is below the
// bound — a completion-time-based barrier in the style of adaptive
// synchronous parallel methods the paper cites ([69]).
func MaxAvgTaskTime(bound time.Duration) WorkerFilter {
	return func(w WorkerStat) bool {
		return w.AvgTaskTime == 0 || w.AvgTaskTime <= bound
	}
}

// Selection is the outcome of an ASYNCbarrier call: the workers reserved
// for the next dispatch. A Selection must be either dispatched (via
// ASYNCreduce / Dispatch) or released.
type Selection struct {
	Workers []int
	ac      *Context
	used    bool
}

// scheduler implements the ASYNCscheduler (§4.4): it blocks until the
// barrier predicate holds and at least one available worker passes the
// filter, then reserves those workers.
type scheduler struct {
	coord *Coordinator
}

// defaultBarrierTimeout bounds how long a barrier may block before
// reporting that the system cannot make progress (e.g. every worker died).
const defaultBarrierTimeout = 30 * time.Second

func (sc *scheduler) await(f BarrierFunc, filter WorkerFilter, timeout time.Duration) ([]int, error) {
	if timeout <= 0 {
		timeout = defaultBarrierTimeout
	}
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		sc.coord.mu.Lock()
		sc.coord.cond.Broadcast()
		sc.coord.mu.Unlock()
	})
	defer timer.Stop()

	sc.coord.mu.Lock()
	defer sc.coord.mu.Unlock()
	for {
		if err := sc.coord.ctxErr; err != nil {
			return nil, err
		}
		if err := sc.coord.taskErr; err != nil {
			return nil, err
		}
		st := sc.coord.statLocked()
		if st.AliveWorkers == 0 {
			return nil, ErrNoWorkers
		}
		rejectedOnly := false
		if f == nil || f(st) {
			var chosen []int
			available := 0
			for _, w := range st.Workers {
				if !w.Alive || !w.Available {
					continue
				}
				available++
				if filter != nil && !filter(w) {
					continue
				}
				chosen = append(chosen, w.Worker)
			}
			if len(chosen) > 0 {
				// reserve inline (we already hold the lock)
				for _, w := range chosen {
					if ws := sc.coord.workers[w]; ws != nil {
						ws.available = false
					}
				}
				return chosen, nil
			}
			rejectedOnly = available > 0
		}
		if time.Now().After(deadline) {
			return nil, ErrBarrierTimeout
		}
		if rejectedOnly {
			// the barrier is open and workers are available but the filter
			// rejected all of them; probabilistic filters (PSP) need a
			// redraw, which no coordinator event will trigger — poll
			sc.coord.mu.Unlock()
			time.Sleep(time.Millisecond)
			sc.coord.mu.Lock()
			continue
		}
		sc.coord.cond.Wait()
	}
}
