package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/straggler"
)

func tinyPartition(t testing.TB, idx int) *dataset.Partition {
	t.Helper()
	d, err := dataset.Generate(dataset.SynthConfig{
		Name: "t", Rows: 12, Cols: 4, NNZPerRow: 2, Seed: int64(idx) + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := dataset.Split(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := parts[0]
	p.Index = idx
	return p
}

func newTestCluster(t *testing.T, n int, delay straggler.Model) *Cluster {
	t.Helper()
	c, err := NewLocal(Config{NumWorkers: n, Delay: delay, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	return c
}

func awaitResult(t *testing.T, c *Cluster) *Result {
	t.Helper()
	select {
	case r := <-c.Results():
		return r
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for result")
		return nil
	}
}

func TestInprocEndpointRoundTrip(t *testing.T) {
	s, w := NewInprocPair()
	if err := s.Send(Message{Kind: KindShutdown}); err != nil {
		t.Fatal(err)
	}
	m, err := w.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != KindShutdown {
		t.Fatalf("kind %v", m.Kind)
	}
	if err := w.Send(Message{Kind: KindHello, Hello: &Hello{Worker: 3}}); err != nil {
		t.Fatal(err)
	}
	m, err = s.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Hello.Worker != 3 {
		t.Fatalf("hello worker %d", m.Hello.Worker)
	}
}

func TestInprocEndpointClose(t *testing.T) {
	s, w := NewInprocPair()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Send(Message{Kind: KindHello}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
	if _, err := w.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("recv after close: %v", err)
	}
}

func TestInprocEndpointDrainAfterClose(t *testing.T) {
	s, w := NewInprocPair()
	if err := s.Send(Message{Kind: KindShutdown}); err != nil {
		t.Fatal(err)
	}
	_ = s.Close()
	// already-buffered message is still deliverable
	m, err := w.Recv()
	if err != nil {
		t.Fatalf("buffered message lost: %v", err)
	}
	if m.Kind != KindShutdown {
		t.Fatalf("kind %v", m.Kind)
	}
}

func init() {
	// registered once per process: RegisterOp panics on duplicates, and
	// `go test -count=N` re-runs tests without reinitializing the package
	RegisterOp("test.echo", func(env *Env, task *Task) (any, error) {
		return task.Args, nil
	})
	RegisterOp("test.dupBase", func(*Env, *Task) (any, error) { return nil, nil })
}

func TestRegistryLookup(t *testing.T) {
	fn, err := LookupOp("test.echo")
	if err != nil {
		t.Fatal(err)
	}
	out, err := fn(nil, &Task{Args: 42})
	if err != nil || out != 42 {
		t.Fatalf("echo = %v, %v", out, err)
	}
	if _, err := LookupOp("test.noSuchOp"); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate registration")
		}
	}()
	RegisterOp("test.dupBase", func(*Env, *Task) (any, error) { return nil, nil })
}

func TestEnvPartitions(t *testing.T) {
	e := NewEnv(0, 1, nil)
	p := tinyPartition(t, 5)
	if err := e.InstallPartition(p); err != nil {
		t.Fatal(err)
	}
	got, err := e.Partition(5)
	if err != nil {
		t.Fatal(err)
	}
	if got.Index != 5 {
		t.Fatalf("index %d", got.Index)
	}
	if _, err := e.Partition(99); err == nil {
		t.Fatal("missing partition returned")
	}
	if err := e.InstallPartition(nil); err == nil {
		t.Fatal("nil partition accepted")
	}
	if got := e.Partitions(); len(got) != 1 || got[0] != 5 {
		t.Fatalf("Partitions = %v", got)
	}
	e.DropPartition(5)
	if len(e.Partitions()) != 0 {
		t.Fatal("partition not dropped")
	}
}

func TestBroadcastCacheBasics(t *testing.T) {
	c := NewBroadcastCache()
	if _, ok := c.Get("w", 1); ok {
		t.Fatal("empty cache hit")
	}
	if _, _, ok := c.Latest("w"); ok {
		t.Fatal("empty cache has a latest version")
	}
	c.Put("w", 1, "a")
	c.Retain("w", 1)
	c.Put("w", 2, "b")
	if v, ok := c.Get("w", 1); !ok || v != "a" {
		t.Fatalf("get = %v %v", v, ok)
	}
	ver, v, ok := c.Latest("w")
	if !ok || ver != 2 || v != "b" {
		t.Fatalf("latest = %d %v %v", ver, v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Versions != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// TestBroadcastCacheEviction walks the retention rule: the newest version
// and retained versions stay, a Put below the newest is kept only if it is
// retained, and a Release evicts unless the version is the newest.
func TestBroadcastCacheEviction(t *testing.T) {
	c := NewBroadcastCache()
	has := func(ver int64) bool { _, ok := c.Get("w", ver); return ok }
	c.Put("w", 1, "a")
	c.Put("w", 2, "b")
	if has(1) || !has(2) {
		t.Fatal("a newer Put must replace an unreferenced newest version")
	}
	c.Retain("w", 2)
	c.Put("w", 3, "c")
	c.Put("w", 4, "d")
	if !has(2) || has(3) || !has(4) {
		t.Fatal("retained version 2 and newest 4 must be all that is left")
	}
	if got := c.Stats(); got.Evicted != 2 || got.Versions != 2 {
		t.Fatalf("stats %+v, want 2 evicted, 2 held", got)
	}
	// a Put below the newest is kept only for a version something retains
	c.Put("w", 1, "a")
	c.Put("x", 9, "other id")
	if has(1) || !has(4) {
		t.Fatal("an unreferenced Put below the newest must not be cached")
	}
	c.Retain("w", 3)
	c.Put("w", 3, "c")
	c.Put("w", 5, "e")
	if !has(3) || has(4) || !has(5) {
		t.Fatal("a retained version put back must survive; old newest 4 must go")
	}
	// Release evicts, except the newest
	c.Release("w", 2)
	c.Retain("w", 5)
	c.Release("w", 5)
	if has(2) || !has(5) {
		t.Fatal("Release must evict version 2 and keep the newest")
	}
	// overwriting a version in place neither grows nor evicts
	c.Put("w", 5, "e2")
	if v, _ := c.Get("w", 5); v != "e2" || c.Stats().Versions != 3 { // w@3, w@5, x@9
		t.Fatalf("overwrite: %v, stats %+v", v, c.Stats())
	}
	c.releaseAll()
	if has(3) || !has(5) || c.Stats().Versions != 2 {
		t.Fatalf("releaseAll must leave only the newest of each id: %+v", c.Stats())
	}
}

func TestLocalClusterFnTask(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	task := &Task{ID: c.NextTaskID(), Dispatch: 9}
	task.SetFunc(func(env *Env, tk *Task) (any, error) {
		return env.WorkerID * 10, nil
	})
	if err := c.Submit(1, task); err != nil {
		t.Fatal(err)
	}
	r := awaitResult(t, c)
	if r.Worker != 1 || r.Payload != 10 || r.Dispatch != 9 || r.Failed() {
		t.Fatalf("result %+v", r)
	}
	if r.ComputeTime < 0 {
		t.Fatal("negative compute time")
	}
}

func TestLocalClusterTaskError(t *testing.T) {
	c := newTestCluster(t, 1, nil)
	task := &Task{ID: c.NextTaskID()}
	task.SetFunc(func(*Env, *Task) (any, error) { return nil, fmt.Errorf("boom") })
	if err := c.Submit(0, task); err != nil {
		t.Fatal(err)
	}
	r := awaitResult(t, c)
	if !r.Failed() || r.Err != "boom" {
		t.Fatalf("result %+v", r)
	}
}

func TestLocalClusterTaskPanicRecovered(t *testing.T) {
	c := newTestCluster(t, 1, nil)
	task := &Task{ID: c.NextTaskID()}
	task.SetFunc(func(*Env, *Task) (any, error) { panic("kaboom") })
	if err := c.Submit(0, task); err != nil {
		t.Fatal(err)
	}
	r := awaitResult(t, c)
	if !r.Failed() {
		t.Fatal("panic not converted to failed result")
	}
	// worker must still be usable
	ok := &Task{ID: c.NextTaskID()}
	ok.SetFunc(func(*Env, *Task) (any, error) { return "fine", nil })
	if err := c.Submit(0, ok); err != nil {
		t.Fatal(err)
	}
	if r := awaitResult(t, c); r.Payload != "fine" {
		t.Fatalf("worker dead after panic: %+v", r)
	}
}

func TestLocalClusterUnknownOp(t *testing.T) {
	c := newTestCluster(t, 1, nil)
	if err := c.Submit(0, &Task{ID: c.NextTaskID(), Op: "test.never"}); err != nil {
		t.Fatal(err)
	}
	r := awaitResult(t, c)
	if !r.Failed() {
		t.Fatal("unknown op did not fail")
	}
}

func TestWaitTimeReported(t *testing.T) {
	c := newTestCluster(t, 1, nil)
	run := func() *Result {
		task := &Task{ID: c.NextTaskID()}
		task.SetFunc(func(*Env, *Task) (any, error) { return nil, nil })
		if err := c.Submit(0, task); err != nil {
			t.Fatal(err)
		}
		return awaitResult(t, c)
	}
	r1 := run()
	if r1.WaitTime != 0 {
		t.Fatalf("first task wait %v, want 0", r1.WaitTime)
	}
	time.Sleep(30 * time.Millisecond)
	r2 := run()
	if r2.WaitTime < 20*time.Millisecond {
		t.Fatalf("second task wait %v, want >= ~30ms", r2.WaitTime)
	}
}

func TestStragglerDelayApplied(t *testing.T) {
	// worker 0 runs at half speed (100% delay); worker 1 untouched
	c := newTestCluster(t, 2, straggler.ControlledDelay{Worker: 0, Intensity: 4.0})
	mk := func() *Task {
		task := &Task{ID: c.NextTaskID()}
		task.SetFunc(func(*Env, *Task) (any, error) {
			time.Sleep(20 * time.Millisecond)
			return nil, nil
		})
		return task
	}
	if err := c.Submit(0, mk()); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(1, mk()); err != nil {
		t.Fatal(err)
	}
	var slow, fast time.Duration
	for i := 0; i < 2; i++ {
		r := awaitResult(t, c)
		if r.Worker == 0 {
			slow = r.ComputeTime
		} else {
			fast = r.ComputeTime
		}
	}
	if slow < 4*fast/2 {
		t.Fatalf("straggler compute %v not ≫ fast compute %v", slow, fast)
	}
}

func TestInstallAndPartitionTask(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	p := tinyPartition(t, 0)
	if err := c.Install(1, p, time.Second); err != nil {
		t.Fatal(err)
	}
	task := &Task{ID: c.NextTaskID(), Partition: 0}
	task.SetFunc(func(env *Env, tk *Task) (any, error) {
		part, err := env.Partition(tk.Partition)
		if err != nil {
			return nil, err
		}
		return part.NumRows(), nil
	})
	if err := c.Submit(1, task); err != nil {
		t.Fatal(err)
	}
	r := awaitResult(t, c)
	if r.Failed() || r.Payload != p.NumRows() {
		t.Fatalf("result %+v", r)
	}
}

func TestInstallUnknownWorker(t *testing.T) {
	c := newTestCluster(t, 1, nil)
	if err := c.Install(5, tinyPartition(t, 0), time.Second); err == nil {
		t.Fatal("unknown worker accepted")
	}
}

func TestFetchPath(t *testing.T) {
	c := newTestCluster(t, 1, nil)
	c.SetFetchHandler(func(id string, ver int64) (any, error) {
		if id != "model" || ver != 7 {
			return nil, fmt.Errorf("unexpected fetch %s@%d", id, ver)
		}
		return "v7", nil
	})
	task := &Task{ID: c.NextTaskID()}
	task.SetFunc(func(env *Env, tk *Task) (any, error) {
		// miss → fetch → cached
		v, err := env.BroadcastValue("model", 7)
		if err != nil {
			return nil, err
		}
		if _, ok := env.Cache().Get("model", 7); !ok {
			return nil, fmt.Errorf("fetched value not cached")
		}
		return v, nil
	})
	if err := c.Submit(0, task); err != nil {
		t.Fatal(err)
	}
	r := awaitResult(t, c)
	if r.Failed() || r.Payload != "v7" {
		t.Fatalf("result %+v", r)
	}
}

func TestFetchWithoutHandlerFails(t *testing.T) {
	c := newTestCluster(t, 1, nil)
	task := &Task{ID: c.NextTaskID()}
	task.SetFunc(func(env *Env, tk *Task) (any, error) {
		return env.BroadcastValue("missing", 1)
	})
	if err := c.Submit(0, task); err != nil {
		t.Fatal(err)
	}
	if r := awaitResult(t, c); !r.Failed() {
		t.Fatal("fetch without handler succeeded")
	}
}

func TestKillWorker(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	c.Kill(0)
	if c.Alive(0) {
		t.Fatal("killed worker still alive")
	}
	if !c.Alive(1) {
		t.Fatal("wrong worker killed")
	}
	task := &Task{ID: c.NextTaskID()}
	task.SetFunc(func(*Env, *Task) (any, error) { return nil, nil })
	if err := c.Submit(0, task); !errors.Is(err, ErrWorkerDown) {
		t.Fatalf("submit to dead worker: %v", err)
	}
	if got := c.AliveWorkers(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("AliveWorkers = %v", got)
	}
}

func TestSubmitBadWorker(t *testing.T) {
	c := newTestCluster(t, 1, nil)
	if err := c.Submit(-1, &Task{}); err == nil {
		t.Fatal("negative worker accepted")
	}
	if err := c.Submit(9, &Task{}); err == nil {
		t.Fatal("out-of-range worker accepted")
	}
}

func TestManyConcurrentTasks(t *testing.T) {
	c := newTestCluster(t, 4, nil)
	const n = 200
	for i := 0; i < n; i++ {
		task := &Task{ID: c.NextTaskID(), Seed: int64(i)}
		task.SetFunc(func(env *Env, tk *Task) (any, error) { return tk.Seed * 2, nil })
		if err := c.Submit(i%4, task); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[int64]bool{}
	for i := 0; i < n; i++ {
		r := awaitResult(t, c)
		if r.Failed() {
			t.Fatalf("task failed: %s", r.Err)
		}
		seen[r.Payload.(int64)] = true
	}
	if len(seen) != n {
		t.Fatalf("got %d distinct results, want %d", len(seen), n)
	}
}
