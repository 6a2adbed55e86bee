// Package rdd implements the Spark-like dataflow layer the paper builds on:
// resilient distributed datasets with lazy, lineage-tracked transformations,
// synchronous actions (reduce, collect, aggregate — Spark's bulk-synchronous
// model), versioned broadcast variables fetched on first use, and fault
// tolerance by recomputation: every derived partition is recomputed from
// its base partition, and base partitions are re-installed on a live worker
// when their owner dies.
//
// The ASYNC engine (internal/core) layers its asynchronous primitives —
// ASYNCreduce, ASYNCbarrier, ASYNCbroadcast — on top of this package's
// Context and Dist types, exactly as the paper layers ASYNC on Spark.
package rdd

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
)

// installTimeout bounds synchronous partition installs.
const installTimeout = 30 * time.Second

// Context is the driver-side handle tying RDDs to a cluster: it owns
// partition placement, master copies of base partitions (the lineage roots),
// and recovery.
type Context struct {
	c *cluster.Cluster

	mu        sync.Mutex
	placement map[int]int                // partition → worker
	master    map[int]*dataset.Partition // driver-side lineage roots
	byWorker  map[int][]int              // worker → partitions (derived)
	store     *driverStore               // broadcast values (driver side)
}

// NewContext creates a driver context on a cluster.
func NewContext(c *cluster.Cluster) *Context {
	return &Context{
		c:         c,
		placement: map[int]int{},
		master:    map[int]*dataset.Partition{},
		byWorker:  map[int][]int{},
	}
}

// Cluster exposes the underlying cluster.
func (ctx *Context) Cluster() *cluster.Cluster { return ctx.c }

// Distribute splits d into numPartitions contiguous blocks and installs them
// round-robin across live workers, keeping driver-side master copies for
// recovery. It returns the base RDD of labelled points.
func (ctx *Context) Distribute(d *dataset.Dataset, numPartitions int) (*RDD[Point], error) {
	parts, err := dataset.Split(d, numPartitions)
	if err != nil {
		return nil, err
	}
	workers := ctx.c.AliveWorkers()
	if len(workers) == 0 {
		return nil, fmt.Errorf("rdd: no live workers")
	}
	for i, p := range parts {
		w := workers[i%len(workers)]
		if err := ctx.c.Install(w, p, installTimeout); err != nil {
			return nil, err
		}
		ctx.mu.Lock()
		ctx.placement[p.Index] = w
		ctx.master[p.Index] = p
		ctx.byWorker[w] = append(ctx.byWorker[w], p.Index)
		ctx.mu.Unlock()
	}
	return basePointRDD(ctx, numPartitions), nil
}

// Release drops every placed partition and its driver-side lineage root,
// returning the context to its pre-Distribute state so a different dataset
// can be distributed on the same cluster. Worker-side copies of the old
// partitions are overwritten index-by-index on the next Distribute; any
// leftovers with indices beyond the new partition count are unreachable
// (tasks only target placed partitions) and are reclaimed when the worker
// shuts down.
func (ctx *Context) Release() {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	ctx.placement = map[int]int{}
	ctx.master = map[int]*dataset.Partition{}
	ctx.byWorker = map[int][]int{}
}

// NumPartitions returns the number of placed partitions.
func (ctx *Context) NumPartitions() int {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	return len(ctx.placement)
}

// WorkerFor returns the worker currently owning a partition.
func (ctx *Context) WorkerFor(part int) (int, error) {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	w, ok := ctx.placement[part]
	if !ok {
		return 0, fmt.Errorf("rdd: partition %d not placed", part)
	}
	return w, nil
}

// PartitionsOn returns the partitions placed on worker w.
func (ctx *Context) PartitionsOn(w int) []int {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	return append([]int(nil), ctx.byWorker[w]...)
}

// Recover re-places a partition whose worker died onto a live worker,
// re-installing the master copy (lineage root). It returns the new worker.
func (ctx *Context) Recover(part int) (int, error) {
	ctx.mu.Lock()
	old, placed := ctx.placement[part]
	m := ctx.master[part]
	ctx.mu.Unlock()
	if !placed || m == nil {
		return 0, fmt.Errorf("rdd: partition %d has no lineage root", part)
	}
	var target = -1
	for _, w := range ctx.c.AliveWorkers() {
		if w != old {
			target = w
			break
		}
	}
	if target < 0 {
		return 0, fmt.Errorf("rdd: no live worker to recover partition %d", part)
	}
	if err := ctx.c.Install(target, m, installTimeout); err != nil {
		return 0, err
	}
	ctx.mu.Lock()
	ctx.placement[part] = target
	old = ctx.prunePlacementLocked(part, old, target)
	ctx.mu.Unlock()
	_ = old
	return target, nil
}

func (ctx *Context) prunePlacementLocked(part, old, target int) int {
	ws := ctx.byWorker[old]
	for i, p := range ws {
		if p == part {
			ctx.byWorker[old] = append(ws[:i], ws[i+1:]...)
			break
		}
	}
	ctx.byWorker[target] = append(ctx.byWorker[target], part)
	return old
}

// MovePartition re-installs a partition's lineage root on the given worker
// and updates placement — explicit rebalancing, e.g. onto a worker added
// after startup.
func (ctx *Context) MovePartition(part, worker int) error {
	ctx.mu.Lock()
	old, placed := ctx.placement[part]
	m := ctx.master[part]
	ctx.mu.Unlock()
	if !placed || m == nil {
		return fmt.Errorf("rdd: partition %d has no lineage root", part)
	}
	if old == worker {
		return nil
	}
	if err := ctx.c.Install(worker, m, installTimeout); err != nil {
		return err
	}
	ctx.mu.Lock()
	ctx.placement[part] = worker
	ctx.prunePlacementLocked(part, old, worker)
	ctx.mu.Unlock()
	return nil
}

// RunSync submits one task per listed partition and waits for all results —
// Spark's bulk-synchronous stage execution. When a worker dies (at submit
// time or while a task is in flight) the partition is recovered onto a live
// worker from its lineage root and the task resubmitted, preserving Spark's
// fault-tolerance semantics.
func (ctx *Context) RunSync(parts []int, mk func(part int) *cluster.Task) ([]*cluster.Result, error) {
	router := ctx.c.Router()
	ch := make(chan *cluster.Result, len(parts))
	pendingByID := map[int64]int{} // task id → partition
	submit := func(part int) error {
		for attempt := 0; attempt < 3; attempt++ {
			w, err := ctx.WorkerFor(part)
			if err != nil {
				return err
			}
			t := mk(part)
			router.Route(t.ID, ch)
			err = ctx.c.Submit(w, t)
			if err == nil {
				pendingByID[t.ID] = part
				return nil
			}
			router.Unroute(t.ID)
			if errors.Is(err, cluster.ErrNotEncodable) {
				// the stage's closure cannot cross this transport; no
				// worker is at fault, so recovery would only churn placement
				return fmt.Errorf("rdd: partition %d: %w", part, err)
			}
			if _, err := ctx.Recover(part); err != nil {
				return fmt.Errorf("rdd: partition %d unrecoverable: %w", part, err)
			}
		}
		return fmt.Errorf("rdd: partition %d: submit retries exhausted", part)
	}
	for _, p := range parts {
		if err := submit(p); err != nil {
			return nil, err
		}
	}
	out := make([]*cluster.Result, 0, len(parts))
	liveness := time.NewTicker(100 * time.Millisecond)
	defer liveness.Stop()
	for len(pendingByID) > 0 {
		select {
		case r := <-ch:
			if _, mine := pendingByID[r.TaskID]; !mine {
				continue // a resubmitted task's abandoned twin
			}
			if r.Failed() {
				return nil, fmt.Errorf("rdd: task %d failed on worker %d: %s", r.TaskID, r.Worker, r.Err)
			}
			delete(pendingByID, r.TaskID)
			out = append(out, r)
		case <-liveness.C:
			// resubmit tasks whose worker died while the task was in flight
			for id, part := range pendingByID {
				w, err := ctx.WorkerFor(part)
				if err == nil && ctx.c.Alive(w) {
					continue
				}
				router.Unroute(id)
				delete(pendingByID, id)
				if _, err := ctx.Recover(part); err != nil {
					return nil, fmt.Errorf("rdd: partition %d unrecoverable: %w", part, err)
				}
				if err := submit(part); err != nil {
					return nil, err
				}
			}
		}
	}
	return out, nil
}

// AllPartitions lists every placed partition id in ascending order.
func (ctx *Context) AllPartitions() []int {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	out := make([]int, 0, len(ctx.placement))
	for p := range ctx.placement {
		out = append(out, p)
	}
	sortInts(out)
	return out
}

func sortInts(v []int) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
