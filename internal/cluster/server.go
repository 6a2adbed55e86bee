package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/la"
	"repro/internal/straggler"
)

// ErrWorkerDown is returned when submitting to a dead worker.
var ErrWorkerDown = errors.New("cluster: worker is down")

// FetchHandler serves broadcast values for worker cache misses. It is
// installed by the ASYNCbroadcaster.
type FetchHandler func(id string, version int64) (any, error)

// Config describes a local (in-process) cluster.
type Config struct {
	NumWorkers int
	Delay      straggler.Model // nil = no stragglers
	Seed       int64           // base seed; worker w uses Seed+w

	// MinTaskTime pads every task to at least this duration before the
	// straggler model is applied. The experiments use it to emulate the
	// paper's compute-bound, second-scale tasks at millisecond scale: delay
	// intensities then act on a stable task time, exactly as in §6.3.
	MinTaskTime time.Duration
}

// Cluster is the server-side view of the worker pool: per-worker endpoints,
// a merged result stream, liveness, and the fetch path.
type Cluster struct {
	mu      sync.RWMutex
	workers []*workerHandle
	results chan *Result

	fetchMu sync.RWMutex
	fetch   FetchHandler

	seq        atomic.Int64
	taskID     atomic.Int64
	router     *Router
	fetchCount atomic.Int64

	wg       sync.WaitGroup // receive loops
	workerWg sync.WaitGroup // local worker goroutines

	// wired is set once any worker sits behind a real transport: from then
	// on only registered ops can be dispatched (see InProcess).
	wired atomic.Bool
}

type workerHandle struct {
	id    int
	ep    Endpoint
	wire  bool // ep serialises messages (anything but the in-process pair)
	alive atomic.Bool

	ackMu sync.Mutex
	acks  map[int64]chan Ack
}

// NewLocal builds an in-process cluster: cfg.NumWorkers workers, each a
// goroutine with its own environment, connected via channel endpoints.
func NewLocal(cfg Config) (*Cluster, error) {
	if cfg.NumWorkers <= 0 {
		return nil, fmt.Errorf("cluster: non-positive worker count %d", cfg.NumWorkers)
	}
	c := newCluster()
	for i := 0; i < cfg.NumWorkers; i++ {
		se, we := NewInprocPair()
		w := NewWorker(i, we, cfg.Delay, cfg.Seed+int64(i))
		w.minTaskTime = cfg.MinTaskTime
		c.addWorker(i, se)
		c.workerWg.Add(1)
		go func() {
			defer c.workerWg.Done()
			_ = w.Run() // exits on shutdown/close; errors surface as dead workers
		}()
	}
	return c, nil
}

func newCluster() *Cluster {
	return &Cluster{results: make(chan *Result, inprocBuffer)}
}

// addWorker registers a server-side endpoint for worker id and starts its
// receive loop.
func (c *Cluster) addWorker(id int, ep Endpoint) {
	_, inproc := ep.(*chanEndpoint)
	h := &workerHandle{id: id, ep: ep, wire: !inproc, acks: map[int64]chan Ack{}}
	h.alive.Store(true)
	if h.wire {
		c.wired.Store(true)
	}
	c.mu.Lock()
	for len(c.workers) <= id {
		c.workers = append(c.workers, nil)
	}
	c.workers[id] = h
	c.mu.Unlock()
	c.wg.Add(1)
	go c.recvLoop(h)
}

func (c *Cluster) handle(worker int) (*workerHandle, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if worker < 0 || worker >= len(c.workers) || c.workers[worker] == nil {
		return nil, fmt.Errorf("cluster: unknown worker %d", worker)
	}
	return c.workers[worker], nil
}

// recvLoop drains one worker's messages: results to the merged stream,
// fetches to the handler, acks to their waiters.
func (c *Cluster) recvLoop(h *workerHandle) {
	defer c.wg.Done()
	for {
		m, err := h.ep.Recv()
		if err != nil {
			h.alive.Store(false)
			return
		}
		switch m.Kind {
		case KindHello:
			// connection established; id was fixed at registration
		case KindTaskResult:
			c.results <- m.Result
		case KindFetch:
			go c.serveFetch(h, m.Fetch)
		case KindAck:
			h.ackMu.Lock()
			ch := h.acks[m.Ack.Seq]
			delete(h.acks, m.Ack.Seq)
			h.ackMu.Unlock()
			if ch != nil {
				ch <- *m.Ack
			}
		}
	}
}

// FetchCount reports how many broadcast values were served through the
// fetch path — the ASYNCbroadcaster's actual value traffic (each fetch
// ships one value to one worker).
func (c *Cluster) FetchCount() int64 { return c.fetchCount.Load() }

// serveFetch answers one fetch. Over an endpoint that serialises, a dense
// vector the worker already holds an older version of goes out as a patch
// against that version whenever the patch is the shorter encoding (see the
// protocol comment in message.go); everything else goes out whole.
func (c *Cluster) serveFetch(h *workerHandle, req *FetchReq) {
	c.fetchCount.Add(1)
	c.fetchMu.RLock()
	fn := c.fetch
	c.fetchMu.RUnlock()
	rep := FetchReply{ID: req.ID, Version: req.Version}
	var patch *la.DeltaVec
	if fn == nil {
		rep.Err = "no fetch handler installed"
	} else if v, err := fn(req.ID, req.Version); err != nil {
		rep.Err = err.Error()
	} else {
		rep.Value = v
		if next, ok := v.(la.Vec); ok && h.wire && req.Have != 0 {
			base, _ := fn(req.ID, req.Have) // pruned from the store: no base, so dense
			if b, ok := base.(la.Vec); ok {
				patch = diffVec(b, next)
			}
		}
		if patch != nil {
			rep.Base, rep.Value = req.Have, patch
			fetchPatch.Inc()
		} else {
			fetchDense.Inc()
		}
	}
	_ = h.ep.Send(Message{Kind: KindFetchReply, FetchReply: &rep})
	la.PutDelta(patch) // Send has serialised it
}

// SetFetchHandler installs the broadcast fetch handler.
func (c *Cluster) SetFetchHandler(fn FetchHandler) {
	c.fetchMu.Lock()
	c.fetch = fn
	c.fetchMu.Unlock()
}

// NextTaskID allocates a unique task id.
func (c *Cluster) NextTaskID() int64 { return c.taskID.Add(1) }

// InProcess reports whether every worker shares the driver's address space
// (channel endpoints). Only then can a task carry an in-process func
// (Task.SetFunc); a cluster with any worker behind a real transport runs
// registered ops only.
func (c *Cluster) InProcess() bool { return !c.wired.Load() }

// Submit dispatches a task to a worker. A task the wire cannot carry fails
// with ErrNotEncodable and leaves the worker alive: nothing was sent, and
// the fault is the task's.
func (c *Cluster) Submit(worker int, t *Task) error {
	h, err := c.handle(worker)
	if err != nil {
		return err
	}
	if !h.alive.Load() {
		return fmt.Errorf("%w: worker %d", ErrWorkerDown, worker)
	}
	if err := h.ep.Send(Message{Kind: KindRunTask, Task: t}); err != nil {
		if errors.Is(err, ErrNotEncodable) {
			return err
		}
		h.alive.Store(false)
		return fmt.Errorf("%w: worker %d: %v", ErrWorkerDown, worker, err)
	}
	return nil
}

// Results returns the merged result stream from all workers.
func (c *Cluster) Results() <-chan *Result { return c.results }

// Install synchronously ships a partition to a worker, waiting for the ack.
func (c *Cluster) Install(worker int, p *dataset.Partition, timeout time.Duration) error {
	h, err := c.handle(worker)
	if err != nil {
		return err
	}
	if !h.alive.Load() {
		return fmt.Errorf("%w: worker %d", ErrWorkerDown, worker)
	}
	seq := c.seq.Add(1)
	ackCh := make(chan Ack, 1)
	h.ackMu.Lock()
	h.acks[seq] = ackCh
	h.ackMu.Unlock()
	msg := Message{Kind: KindInstallPartition, Seq: seq, Install: &InstallPartition{Part: p}}
	if err := h.ep.Send(msg); err != nil {
		return fmt.Errorf("cluster: install on worker %d: %w", worker, err)
	}
	select {
	case ack := <-ackCh:
		if ack.Err != "" {
			return fmt.Errorf("cluster: install on worker %d: %s", worker, ack.Err)
		}
		return nil
	case <-time.After(timeout):
		h.ackMu.Lock()
		delete(h.acks, seq)
		h.ackMu.Unlock()
		return fmt.Errorf("cluster: install on worker %d timed out after %v", worker, timeout)
	}
}

// AddLocalWorker grows an in-process cluster by one worker (elastic
// scale-out, in the spirit of Litz-style elasticity the paper cites). The
// new worker gets the next free id and starts empty: move partitions to it
// with rdd.Context.MovePartition so it can take on work. Returns the id.
func (c *Cluster) AddLocalWorker(delay straggler.Model, seed int64) int {
	c.mu.Lock()
	id := len(c.workers)
	c.mu.Unlock()
	se, we := NewInprocPair()
	w := NewWorker(id, we, delay, seed)
	c.addWorker(id, se)
	c.workerWg.Add(1)
	go func() {
		defer c.workerWg.Done()
		_ = w.Run()
	}()
	return id
}

// Kill abruptly severs a worker (crash injection for fault-tolerance tests).
func (c *Cluster) Kill(worker int) {
	h, err := c.handle(worker)
	if err != nil {
		return
	}
	h.alive.Store(false)
	_ = h.ep.Close()
}

// Alive reports whether a worker is reachable.
func (c *Cluster) Alive(worker int) bool {
	h, err := c.handle(worker)
	return err == nil && h.alive.Load()
}

// NumWorkers returns the number of registered workers (alive or not).
func (c *Cluster) NumWorkers() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.workers)
}

// AliveWorkers lists the ids of live workers in ascending order.
func (c *Cluster) AliveWorkers() []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []int
	for _, h := range c.workers {
		if h != nil && h.alive.Load() {
			out = append(out, h.id)
		}
	}
	return out
}

// Shutdown stops all workers and receive loops. Results buffered but not yet
// consumed remain readable until the channel is drained; the channel itself
// is not closed (consumers use engine-level completion signals instead).
func (c *Cluster) Shutdown() {
	c.mu.RLock()
	handles := append([]*workerHandle(nil), c.workers...)
	c.mu.RUnlock()
	for _, h := range handles {
		if h == nil {
			continue
		}
		_ = h.ep.Send(Message{Kind: KindShutdown})
	}
	// give workers a moment to exit their loops, then sever transports
	done := make(chan struct{})
	go func() {
		c.workerWg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
	}
	for _, h := range handles {
		if h == nil {
			continue
		}
		h.alive.Store(false)
		_ = h.ep.Close()
	}
	c.wg.Wait()
}
