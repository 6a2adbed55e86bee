package core

import "repro/internal/telemetry"

// Coordinator-level instrumentation on the process-global registry. All
// observations happen on paths that already hold co.mu and touch maps, so
// the zero-alloc atomic ops add nothing measurable (reported as
// trace.overhead_share by benchmark/).
var (
	mTasksDispatched = telemetry.Default().Counter("async_core_tasks_dispatched_total",
		"Tasks handed to workers by the ASYNC scheduler.")
	mResultsIngested = telemetry.Default().Counter("async_core_results_total",
		"Worker results ingested by the coordinator (failed tasks included).")
	mClockAdvances = telemetry.Default().Counter("async_core_updates_total",
		"Logical model-update clock advances.")
	mStaleness = telemetry.Default().Histogram("async_core_staleness",
		"Staleness (updates behind the clock) of ingested results.",
		telemetry.PowTwoBuckets(16))
	mTaskWait = telemetry.Default().Histogram("async_core_task_wait_seconds",
		"Per-task worker wait between submitting a result and receiving the next task.",
		telemetry.LatencyBuckets())
	mTaskCompute = telemetry.Default().Histogram("async_core_task_compute_seconds",
		"Per-task worker compute time.",
		telemetry.LatencyBuckets())
	mDispatchRoundtrip = telemetry.Default().Histogram("async_core_dispatch_roundtrip_seconds",
		"Dispatch-to-ingest round trip per task (queueing, transport, compute).",
		telemetry.LatencyBuckets())
)
