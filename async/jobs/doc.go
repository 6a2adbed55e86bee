// Package jobs is the multi-tenant job-scheduling layer over the ASYNC
// engine: a Scheduler owns a bounded pool of async.Engines and a bounded
// priority queue of optimization jobs, so many callers can share a warm
// cluster instead of spinning an engine per run — the engine serves one
// Solve at a time (async.ErrBusy), the scheduler serves as many as fit the
// queue.
//
// # Model
//
// A Job is one Solve described declaratively by a Spec: a registry
// algorithm name (sgd, asgd, saga, asaga, svrg, admm, cd, ...), a named
// synthetic dataset from the catalog (rcv1-like, mnist8m-like,
// epsilon-like) at a scale, a barrier policy (ASP, BSP, SSP), a step
// schedule, and a budget. Specs are plain JSON-marshalable data, so the
// same type drives both the Go API and the HTTP API (NewHandler).
//
//	s, _ := jobs.New(jobs.Config{Engines: 2})
//	defer s.Close()
//	id, _ := s.Submit(jobs.Spec{
//		Algorithm: "asgd",
//		Dataset:   jobs.DatasetSpec{Name: "rcv1-like"},
//		Updates:   400,
//	})
//	job, _ := s.Wait(ctx, id)
//
// # Scheduling
//
// Submit enqueues (higher Priority first, FIFO within a priority) and
// returns immediately with a JobID; ErrQueueFull is the backpressure
// signal. Engines spin up lazily, up to Config.Engines. Dispatch prefers
// dataset affinity: a queued job whose dataset an idle engine already
// holds is routed to that engine ahead of the queue head, so repeated
// jobs against the same dataset skip redistribution. Affinity never
// crosses a priority boundary and jumps at most a few times past the same
// head job, so neither priorities nor FIFO fairness are starved. When no
// affinity match exists, the head job takes an empty engine, a freshly
// spun-up one, or the least-recently-used idle engine (whose dataset is
// then Released and swapped).
//
// # Lifecycle and observation
//
// Jobs move queued → running → done | failed | canceled, with running →
// preempted → running excursions when an engine is taken away mid-run. A
// job's state is what its records say: every transition is one
// store.Record folded by store.JobState.Apply — the transition table lives
// there, in package store's doc — whether this scheduler commits it, boot
// recovery replays it, or a peer replica's copy is mirrored from the shared
// log. The State the API shows is that fold's terminal phase, else running
// while an engine here holds the job, else preempted (it has run and holds
// a checkpoint) or queued. Cancel aborts a queued job before it ever starts
// and interrupts a running one through its per-job context, which the
// engine threads into barrier waits and collects; canceling a job another
// replica has claimed returns ErrRemoteJob.
//
// Status/List return point-in-time snapshots, Wait blocks for a terminal
// state, and Subscribe streams Events (state transitions plus per-snapshot
// progress: updates done, current suboptimality, elapsed time) with full
// history replay. Terminal jobs are retained — status and events, not the
// model — until Config.Retention evicts the oldest.
package jobs
