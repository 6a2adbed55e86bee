package cluster

import (
	"sync"

	"repro/internal/la"
)

// Scratch is the worker-local typed scratch store: reusable dense and
// sparse buffers that task kernels use instead of allocating per task.
// It sits next to Env's untyped KV store but holds only throwaway compute
// state — contents carry no meaning between tasks, so unlike the KV store it
// survives Env.StoreClear and run resets, which is what keeps a reused
// engine's steady state allocation-free across jobs.
//
// Workers execute one task at a time, so scratch buffers are never used by
// two tasks concurrently; the mutex only protects the buffer maps for
// callers that probe an Env from tests or tooling.
type Scratch struct {
	mu     sync.Mutex
	vecs   map[string]la.Vec
	deltas map[string]*la.DeltaAccum
}

// Vec returns a zeroed scratch vector of length n under key, reusing the
// previous buffer when the length matches. The buffer is only valid until
// the next Vec call with the same key; it must never escape the task (use
// la.GetVec for accumulators that travel with the task result).
func (s *Scratch) Vec(key string, n int) la.Vec {
	s.mu.Lock()
	if s.vecs == nil {
		s.vecs = map[string]la.Vec{}
	}
	v, ok := s.vecs[key]
	if !ok || len(v) != n {
		v = la.NewVec(n)
		s.vecs[key] = v
	}
	s.mu.Unlock()
	v.Zero()
	return v
}

// Delta returns the worker's sparse scatter accumulator of dimension n
// under key, reusing the previous one when the dimension matches. Like Vec
// buffers it must never escape the task; kernels snapshot it into a pooled
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
