package cluster

import (
	"sync"

	"repro/internal/la"
)

// Scratch is the worker-local typed scratch store: reusable sparse scatter
// accumulators that task kernels use instead of allocating per task.
// It sits next to Env's untyped KV store but holds only throwaway compute
// state — contents carry no meaning between tasks, so unlike the KV store it
// survives Env.StoreClear and run resets, which is what keeps a reused
// engine's steady state allocation-free across jobs.
//
// Workers execute one task at a time, so scratch buffers are never used by
// two tasks concurrently; the mutex only protects the buffer map for
// callers that probe an Env from tests or tooling.
type Scratch struct {
	mu     sync.Mutex
	deltas map[string]*la.DeltaAccum
}

// Delta returns the worker's sparse scatter accumulator of dimension n
// under key, reusing the previous one when the dimension matches. It must
// never escape the task; kernels snapshot it into a pooled
// la.DeltaVec (DeltaAccum.Compact) before returning. The caller is
// responsible for Reset — contents carry no meaning between tasks.
func (s *Scratch) Delta(key string, n int) *la.DeltaAccum {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.deltas == nil {
		s.deltas = map[string]*la.DeltaAccum{}
	}
	a, ok := s.deltas[key]
	if !ok || a.Dim() != n {
		a = la.NewDeltaAccum(n)
		s.deltas[key] = a
	}
	return a
}
