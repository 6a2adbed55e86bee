package opt

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
)

// cacheCensusOp reports, from inside a worker, what its broadcast cache
// holds: [versions cached, references held, versions of "vr.anchor" (0 or
// 1: the newest of an id is always kept)]. A history table holds one
// reference per version it records (pinned in internal/core), so the
// second count is the number of versions the table can read. A worker's
// Env belongs to its own goroutine (and sits behind a socket on the
// loopback transport), so the census has to be taken by a task.
const cacheCensusOp = "test.cache-census"

func init() {
	cluster.RegisterOp(cacheCensusOp, func(env *cluster.Env, t *cluster.Task) (any, error) {
		st := env.Cache().Stats()
		anchor := 0
		if _, _, ok := env.Cache().Latest("vr.anchor"); ok {
			anchor = 1
		}
		return []int{st.Versions, st.Retained, anchor}, nil
	})
}

// cacheCensus runs cacheCensusOp on every worker of r.
func cacheCensus(t *testing.T, r *rig) [][]int {
	t.Helper()
	var out [][]int
	for _, w := range r.c.AliveWorkers() {
		ch := make(chan *cluster.Result, 1)
		task := &cluster.Task{ID: r.c.NextTaskID(), Op: cacheCensusOp, Partition: -1}
		r.c.Router().Route(task.ID, ch)
		if err := r.c.Submit(w, task); err != nil {
			t.Fatal(err)
		}
		select {
		case res := <-ch:
			if res.Failed() {
				t.Fatalf("census on worker %d: %s", w, res.Err)
			}
			out = append(out, res.Payload.([]int))
		case <-time.After(10 * time.Second):
			t.Fatalf("census on worker %d timed out", w)
		}
	}
	return out
}

// TestWorkerCacheRetention pins the retention rule end to end on both
// transports: a long asgd run leaves at most two versions of the model on
// any worker and no references, and so does an asaga run — its history is
// one coefficient per row, not a model version; the version-history arm
// (Algorithm 4 read literally) leaves exactly the versions it can still
// read — one reference each — plus at most the newest; a reused engine
// starts its next run with no references and one version; and an svrg run
// caches its model alone — the anchor's coefficients sit in the SAGA table,
// so there is no "vr.anchor" broadcast — at most two versions of it.
func TestWorkerCacheRetention(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		r := newRigOn(t, tr, 2, 4, nil, denseCfg())
		p := Params{Step: InvSqrt{A: 0.05}, SampleFrac: 0.2, Updates: 2000, SnapshotEvery: 500}
		if _, err := ASGD(r.ac, r.d, p, r.fstar); err != nil {
			t.Fatal(err)
		}
		for w, c := range cacheCensus(t, r) {
			if c[0] < 1 || c[0] > 2 || c[1] != 0 {
				t.Fatalf("asgd: worker %d holds %d versions, %d references; want ≤ 2 and 0", w, c[0], c[1])
			}
		}

		if err := r.ac.ResetRun(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		p.Updates = 300
		if _, err := ASAGA(r.ac, r.d, p, r.fstar); err != nil {
			t.Fatal(err)
		}
		for w, c := range cacheCensus(t, r) {
			// the asgd run's last "sgd.w" version is still the newest of its id
			if got := c[0] - 1; got < 1 || got > 2 || c[1] != 0 {
				t.Fatalf("asaga: worker %d holds %d versions of saga.w, %d references; want ≤ 2 and 0", w, got, c[1])
			}
		}

		if err := r.ac.ResetRun(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		if _, err := runSAGA(r.ac, r.d, p, r.fstar, sagaHistoryOpName, false); err != nil {
			t.Fatal(err)
		}
		sawHistory := false
		for w, c := range cacheCensus(t, r) {
			if got := c[0] - 1; got < c[1] || got > c[1]+1 {
				t.Fatalf("asaga-history: worker %d holds %d versions of saga.w; its history can read %d", w, got, c[1])
			}
			sawHistory = sawHistory || c[1] > 2
		}
		if !sawHistory {
			t.Fatal("asaga-history left no history to retain — the test exercises nothing")
		}

		if err := r.ac.ResetRun(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		for w, c := range cacheCensus(t, r) {
			if c[0] != 2 || c[1] != 0 { // newest of sgd.w and of saga.w
				t.Fatalf("after ResetRun: worker %d holds %d versions, %d references; want 2, 0", w, c[0], c[1])
			}
		}

		if _, err := EpochVR(r.ac, r.d, p, VRConfig{Epochs: 3}, r.fstar); err != nil {
			t.Fatal(err)
		}
		for w, c := range cacheCensus(t, r) {
			if got := c[0] - 2; got < 1 || got > 2 || c[1] != 0 || c[2] != 0 {
				t.Fatalf("svrg: worker %d holds %d versions of vr.w, %d references, %d of vr.anchor; want ≤ 2, 0, 0", w, got, c[1], c[2])
			}
		}
	})
}

// TestPruningCannotStarveHistory: the driver keeps only the newest 4·workers
// versions of a model, and the version-history arm of asaga (Algorithm 4
// read literally) reads versions far older than that. It never asks the
// driver for them: a worker retains what its history table
// references, so the only version a task fetches is the one it was
// dispatched with. Rows are drawn rarely enough here that most historical
// reads reach versions the driver dropped long ago. The run dispatches under
// the BSP barrier, so no task waits long enough for its own version to leave
// the driver (the timing failure ErrTaskFailed documents); any fetch the
// driver cannot serve is then a historical read that went back to it, and
// any task that fails has failed on one. There must be none, and the driver
// serves at most one fetch per task dispatched — a historical version
// evicted and asked for again would show up as a second one.
func TestPruningCannotStarveHistory(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		const workers = 2
		r := newRigOn(t, tr, workers, 4, nil, denseCfg())
		// stand between the workers and the driver store to see the misses
		var missed atomic.Int64
		r.rctx.Broadcast("saga.w", nil) // installs the store's own handler first
		store := r.c.SetFetchHandler(nil)
		r.c.SetFetchHandler(func(id string, ver, have int64) (cluster.FetchAnswer, error) {
			ans, err := store(id, ver, have)
			if err != nil {
				missed.Add(1)
			}
			return ans, err
		})
		p := Params{Step: InvSqrt{A: 0.05}, SampleFrac: 0.05, Updates: 2000, SnapshotEvery: 500, Barrier: core.BSP()}
		if _, err := runSAGA(r.ac, r.d, p, r.fstar, sagaHistoryOpName, false); err != nil {
			t.Fatal(err)
		}
		if n := missed.Load(); n != 0 {
			t.Fatalf("%d fetches asked the driver for a version it had dropped", n)
		}
		tasks, fetches := r.ac.Coordinator().DispatchSeq(), r.c.FetchCount()
		if tasks < int64(p.Updates) || fetches > tasks {
			t.Fatalf("%d fetches for %d tasks: a historical read went back to the driver", fetches, tasks)
		}
		deep := false
		for _, c := range cacheCensus(t, r) {
			deep = deep || c[1] > 4*workers
		}
		if !deep {
			t.Fatal("no worker's history reaches past the driver's retention — the test exercises nothing")
		}
	})
}
