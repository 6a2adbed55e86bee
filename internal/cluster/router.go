package cluster

import "sync"

// Router is the single consumer of a Cluster's merged result stream. Callers
// register a destination channel per task id before submitting the task;
// results for unregistered ids are dropped (they can only arise from
// abandoned computations). The router lets the synchronous RDD actions and
// the asynchronous ASYNC engine share one cluster without stealing each
// other's results.
type Router struct {
	mu     sync.Mutex
	routes map[int64]chan<- *Result
}

// Router returns the cluster's router, starting its consume loop on first
// use; that loop is the only reader of the merged result stream.
func (c *Cluster) Router() *Router {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.router == nil {
		c.router = &Router{routes: map[int64]chan<- *Result{}}
		go c.router.run(c.results)
	}
	return c.router
}

func (r *Router) run(results <-chan *Result) {
	for res := range results {
		r.mu.Lock()
		ch := r.routes[res.TaskID]
		delete(r.routes, res.TaskID)
		r.mu.Unlock()
		if ch != nil {
			ch <- res
		}
	}
}

// Route registers the destination for one task id. Each id is delivered at
// most once and the route is consumed on delivery. The destination channel
// must have capacity for the result (the router never blocks the stream on
// an unbuffered channel by contract, not enforcement).
func (r *Router) Route(id int64, ch chan<- *Result) {
	r.mu.Lock()
	r.routes[id] = ch
	r.mu.Unlock()
}

// Unroute abandons a pending task's route (e.g. its worker died). A result
// arriving afterwards is dropped.
func (r *Router) Unroute(id int64) {
	r.mu.Lock()
	delete(r.routes, id)
	r.mu.Unlock()
}
