package cluster

import (
	"fmt"
	"time"

	"repro/internal/la"
	"repro/internal/straggler"
)

// Worker is the executor loop that runs on each cluster node. It executes
// one task at a time (the paper runs one executor per worker), injects
// straggler delay after real compute, tracks the wait-time metric, and
// serves the broadcast-cache fetch path.
type Worker struct {
	id          int
	ep          Endpoint
	delay       straggler.Model
	env         *Env
	minTaskTime time.Duration // pad tasks to this duration (see Config)

	tasks        chan *Task
	fetchReplies chan *FetchReply
	quit         chan struct{}
}

// NewWorker wires a worker runtime onto an endpoint. Call Run to start.
func NewWorker(id int, ep Endpoint, delay straggler.Model, seed int64) *Worker {
	if delay == nil {
		delay = straggler.None{}
	}
	w := &Worker{
		id:           id,
		ep:           ep,
		delay:        delay,
		tasks:        make(chan *Task, inprocBuffer),
		fetchReplies: make(chan *FetchReply, 4),
		quit:         make(chan struct{}),
	}
	w.env = NewEnv(id, seed, w.fetchFromServer)
	return w
}

// Env exposes the worker-local environment (tests and local tooling only).
func (w *Worker) Env() *Env { return w.env }

// Run executes the worker loop until shutdown or transport failure. It
// always returns a non-nil reason; ErrClosed and clean shutdown are normal.
func (w *Worker) Run() error {
	if err := w.ep.Send(Message{Kind: KindHello, Hello: &Hello{Worker: w.id}}); err != nil {
		return fmt.Errorf("cluster: worker %d hello: %w", w.id, err)
	}
	defer w.env.cache.drop()
	go w.recvLoop()
	var lastSubmit time.Time
	for {
		var t *Task
		select {
		case <-w.quit:
			return nil
		case t = <-w.tasks:
		}
		start := time.Now()
		var wait time.Duration
		if !lastSubmit.IsZero() {
			wait = start.Sub(lastSubmit)
		}
		payload, err := w.execute(t)
		compute := time.Since(start)
		if compute < w.minTaskTime {
			time.Sleep(w.minTaskTime - compute)
			compute = w.minTaskTime
		}
		if extra := w.delay.Delay(w.id, compute); extra > 0 {
			time.Sleep(extra)
			compute += extra
		}
		res := &Result{
			TaskID:      t.ID,
			Worker:      w.id,
			Op:          t.Op,
			Dispatch:    t.Dispatch,
			Payload:     payload,
			ComputeTime: compute,
			WaitTime:    wait,
		}
		if err != nil {
			res.Err = err.Error()
			res.Payload = nil
		}
		if err := w.ep.Send(Message{Kind: KindTaskResult, Result: res}); err != nil {
			return fmt.Errorf("cluster: worker %d submit: %w", w.id, err)
		}
		lastSubmit = time.Now()
	}
}

// execute resolves the task body: the in-process func if attached, else the
// registered op.
func (w *Worker) execute(t *Task) (payload any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cluster: task %d panicked on worker %d: %v", t.ID, w.id, r)
		}
	}()
	if fn := t.Func(); fn != nil {
		return fn(w.env, t)
	}
	op, err := LookupOp(t.Op)
	if err != nil {
		return nil, err
	}
	return op(w.env, t)
}

// recvLoop demultiplexes inbound messages. Partition installs are handled
// here so they take effect even while a task is executing.
func (w *Worker) recvLoop() {
	for {
		m, err := w.ep.Recv()
		if err != nil {
			close(w.quit)
			return
		}
		switch m.Kind {
		case KindRunTask:
			select {
			case w.tasks <- m.Task:
			case <-w.quit:
				return
			}
		case KindInstallPartition:
			ack := Ack{Seq: m.Seq}
			if err := w.env.InstallPartition(m.Install.Part); err != nil {
				ack.Err = err.Error()
			}
			if err := w.ep.Send(Message{Kind: KindAck, Ack: &ack}); err != nil {
				close(w.quit)
				return
			}
		case KindFetchReply:
			select {
			case w.fetchReplies <- m.FetchReply:
			default:
				// no fetch outstanding: stale reply, drop
			}
		case KindShutdown:
			close(w.quit)
			return
		}
	}
}

// fetchFromServer implements the broadcast miss path: request (id, version),
// offering the newest version of id already held as a patch base, and block
// for the reply. No goroutine but the executor's — this one — mutates the
// cache (recvLoop only hands the reply over), so the base cannot change
// during the exchange and at most one fetch is outstanding per worker.
func (w *Worker) fetchFromServer(id string, version int64) (any, error) {
	have, base, ok := w.env.Cache().Latest(id)
	if _, isVec := base.(la.Vec); !ok || !isVec || have <= 0 {
		have, base = 0, nil
	}
	req := Message{Kind: KindFetch, Fetch: &FetchReq{Worker: w.id, ID: id, Version: version, Have: have}}
	if err := w.ep.Send(req); err != nil {
		return nil, err
	}
	for {
		select {
		case <-w.quit:
			return nil, ErrClosed
		case rep := <-w.fetchReplies:
			if rep.ID != id || rep.Version != version {
				continue // stale reply from an abandoned fetch
			}
			if rep.Err != "" {
				return nil, fmt.Errorf("cluster: fetch %s@%d: %s", id, version, rep.Err)
			}
			if rep.Base == 0 {
				return rep.Value, nil
			}
			v, err := applyPatch(rep, have, base)
			if d, ok := rep.Value.(*la.DeltaVec); ok {
				la.PutDelta(d) // decoded from the wire: nobody else holds it
			}
			if err != nil {
				return nil, fmt.Errorf("cluster: fetch %s@%d: %w", id, version, err)
			}
			return v, nil
		}
	}
}
