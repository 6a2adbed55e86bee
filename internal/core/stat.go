// Package core implements the paper's contribution: the ASYNC engine. Its
// three components — the ASYNCcoordinator, the ASYNCbroadcaster, and the
// ASYNCscheduler — plus the bookkeeping structures (per-task attributes and
// the per-worker STAT table) enable asynchronous optimization methods on
// the Spark-like substrate in internal/rdd, exposing the Table 1 API:
//
//	ASYNCreduce / ASYNCaggregate   asynchronous per-worker local reduction
//	ASYNCbarrier                   barrier control over worker status (ASP/BSP/SSP/custom)
//	ASYNCcollect / ASYNCcollectAll FIFO task-result access, with attributes
//	ASYNCbroadcast                 versioned history broadcast (id-only re-broadcast)
//	AC.STAT / AC.hasNext           bookkeeping access
package core

import (
	"time"
)

// WorkerStat is one row of the STAT table: the most recent status of a
// worker as maintained by the ASYNCcoordinator (§4.1).
type WorkerStat struct {
	Worker    int
	Alive     bool
	Available bool // not currently executing a task

	// Staleness is the number of model updates applied since the worker's
	// current (if busy) or last (if available) task was dispatched.
	Staleness int64

	// AvgTaskTime is the mean wall-clock compute time of the worker's
	// completed tasks, including injected straggler delay.
	AvgTaskTime time.Duration

	// TasksCompleted counts results received from the worker.
	TasksCompleted int64
}

// Stat is the full bookkeeping snapshot handed to barrier-control functions
// and user code via AC.STAT.
type Stat struct {
	Workers []WorkerStat

	// AliveWorkers and AvailableWorkers are the counts the paper's barrier
	// examples use (e.g. BSP: Available_Workers == P).
	AliveWorkers     int
	AvailableWorkers int

	// MaxStaleness is the maximum staleness across live workers (the SSP
	// barrier metric).
	MaxStaleness int64

	// Updates is the server's logical clock: the number of model updates
	// applied so far.
	Updates int64

	// Pending is the number of tasks currently in flight.
	Pending int
}

// Attrs are the per-task-result attributes the coordinator tags results
// with (§4.1: worker ID, staleness, mini-batch size, plus timings).
type Attrs struct {
	Worker    int
	Staleness int64 // updates applied between dispatch and arrival
	MiniBatch int   // samples the task actually processed
	Iteration int64 // logical clock at dispatch
	Compute   time.Duration
	Wait      time.Duration
}

// TaskResult is one entry of the server-side result queue.
type TaskResult struct {
	Payload any
	Attrs   Attrs
}

// BatchSized lets task payloads report their mini-batch size to the
// coordinator so Attrs.MiniBatch is populated.
type BatchSized interface {
	BatchSize() int
}
