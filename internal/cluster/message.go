// Package cluster implements the distributed runtime substrate beneath the
// ASYNC engine: worker processes with their own executor loop and local
// state, a server that dispatches tasks and collects results, and a
// pluggable Transport with two implementations — in-process channels (the
// default, simulating the paper's XSEDE cluster with real concurrency and
// real wall-clock timing) and TCP carrying length-prefixed binary frames
// (codec.go; the same protocol across real sockets).
//
// The protocol is message-passing in both directions:
//
//	server → worker: RunTask, InstallPartition, FetchReply, Shutdown
//	worker → server: Hello, TaskResult, Fetch, Ack
//
// Broadcast fetch (the ASYNCbroadcaster miss path). A worker that needs
// (id, version) sends FetchReq{ID, Version, Have}, where Have is the newest
// version of that id in its cache (0 = none). The server answers with one
// FetchReply for that (ID, Version):
//
//   - Base == 0: Value is the whole value. Always so on the in-process
//     endpoint pair, which passes the driver's pointer and never copies.
//   - Base != 0: Value is a *la.DeltaVec patch against version Base — the
//     coordinates whose float64 bit patterns differ between the two versions,
//     with their replacement (not additive) values. Sent only on an endpoint
//     that serialises, when Base == Have, both versions are la.Vec of equal
//     length still in the driver store, and the patch encodes shorter than
//     the dense vector. The worker copies its base — only its executor
//     goroutine, the one waiting for this reply, ever changes its cache — and
//     overwrites the listed coordinates: the result is bit-identical to the
//     driver's vector whatever produced the change.
//
// The worker validates a patch before touching anything: Base must equal the
// Have it sent, the value must be a sparse delta (whose decode already
// enforced strictly increasing indices below N), and N must equal the base
// vector's length. Any violation fails the fetch — and with it the task —
// with an error; nothing is cached and the base is never modified.
//
// Stragglers are injected at the worker executor: after a task's real
// compute finishes, the worker sleeps for the model's extra delay, exactly
// like the paper's sleep-based controlled delay (§6.3).
package cluster

import (
	"time"

	"repro/internal/dataset"
)

// Kind discriminates protocol messages.
type Kind int

// Protocol message kinds, numbered by position. Driver and workers are
// always one build and a frame is never persisted (the WAL stores Records),
// so retiring a kind renumbers the ones after it safely.
const (
	KindHello Kind = iota + 1
	KindRunTask
	KindTaskResult
	KindInstallPartition
	KindAck
	KindFetch
	KindFetchReply
	KindShutdown
)

func (k Kind) String() string {
	switch k {
	case KindHello:
		return "hello"
	case KindRunTask:
		return "run-task"
	case KindTaskResult:
		return "task-result"
	case KindInstallPartition:
		return "install-partition"
	case KindAck:
		return "ack"
	case KindFetch:
		return "fetch"
	case KindFetchReply:
		return "fetch-reply"
	case KindShutdown:
		return "shutdown"
	default:
		return "unknown"
	}
}

// TaskFunc is the in-process fast path for task execution. It cannot cross a
// real transport; remote-capable tasks use a registered Op instead.
type TaskFunc func(env *Env, t *Task) (any, error)

// Task is one unit of work dispatched to a worker.
type Task struct {
	ID        int64
	Op        string // registered op name; "" when fn is set (in-proc only)
	Args      any    // op arguments; over TCP a non-builtin type needs RegisterPayloadCodec
	Partition int    // partition the task targets; -1 = worker-wide
	Seed      int64  // per-task sampling seed, for reproducibility
	Dispatch  int64  // server logical clock (update count) at dispatch — staleness bookkeeping

	fn TaskFunc // unexported: never serialized
}

// SetFunc attaches an in-process task function. Tasks with a func bypass the
// op registry; they cannot be sent over a real transport.
func (t *Task) SetFunc(f TaskFunc) { t.fn = f }

// Func returns the attached in-process task function, if any.
func (t *Task) Func() TaskFunc { return t.fn }

// Result is a completed task's payload plus the worker-side measurements the
// ASYNC bookkeeping structures need (per-task worker ID, timings, batch).
type Result struct {
	TaskID   int64
	Worker   int
	Op       string
	Dispatch int64 // echoed from the task, for staleness computation
	Payload  any
	Err      string // non-empty on task failure

	ComputeTime time.Duration // real compute plus injected straggler delay
	WaitTime    time.Duration // idle time between previous submit and this task's start
}

// Failed reports whether the task errored on the worker.
func (r *Result) Failed() bool { return r.Err != "" }

// FetchReq asks the server for a broadcast value the worker does not have
// cached (the ASYNCbroadcaster miss path).
type FetchReq struct {
	Worker  int
	ID      string
	Version int64
	Have    int64 // newest version of ID the worker holds; 0 = none
}

// FetchReply carries the requested broadcast value back to the worker:
// whole when Base is 0, else as a patch against version Base (see the
// protocol comment above).
type FetchReply struct {
	ID      string
	Version int64
	Base    int64
	Value   any
	Err     string
}

// InstallPartition ships a data partition to a worker at setup (or during
// recovery after a crash).
type InstallPartition struct {
	Part *dataset.Partition
}

// Hello is the worker's first message on a transport connection.
type Hello struct {
	Worker int
}

// Ack acknowledges an install (correlated by sequence number).
type Ack struct {
	Seq int64
	Err string
}

// Message is the single envelope exchanged between server and workers.
// Exactly one pointer field (matching Kind) is set.
type Message struct {
	Kind       Kind
	Seq        int64 // request/ack correlation for control messages
	Hello      *Hello
	Task       *Task
	Result     *Result
	Install    *InstallPartition
	Ack        *Ack
	Fetch      *FetchReq
	FetchReply *FetchReply
}
