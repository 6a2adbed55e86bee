package rdd

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/la"
)

func testSetup(t *testing.T, workers, partitions int) (*Context, *RDD[Point], *dataset.Dataset) {
	t.Helper()
	c, err := cluster.NewLocal(cluster.Config{NumWorkers: workers, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	ctx := NewContext(c)
	d, err := dataset.Generate(dataset.SynthConfig{
		Name: "t", Rows: 64, Cols: 8, NNZPerRow: 4, Noise: 0.1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := ctx.Distribute(d, partitions)
	if err != nil {
		t.Fatal(err)
	}
	return ctx, r, d
}

func TestDistributePlacement(t *testing.T) {
	ctx, r, _ := testSetup(t, 3, 6)
	if r.NumPartitions() != 6 {
		t.Fatalf("partitions = %d", r.NumPartitions())
	}
	if ctx.NumPartitions() != 6 {
		t.Fatalf("ctx partitions = %d", ctx.NumPartitions())
	}
	counts := map[int]int{}
	for _, p := range ctx.AllPartitions() {
		w, err := ctx.WorkerFor(p)
		if err != nil {
			t.Fatal(err)
		}
		counts[w]++
	}
	for w, n := range counts {
		if n != 2 {
			t.Fatalf("worker %d has %d partitions, want 2", w, n)
		}
	}
}

func TestWorkerForUnknown(t *testing.T) {
	ctx, _, _ := testSetup(t, 2, 2)
	if _, err := ctx.WorkerFor(99); err == nil {
		t.Fatal("unknown partition accepted")
	}
}

func TestCount(t *testing.T) {
	_, r, d := testSetup(t, 2, 4)
	n, err := r.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != d.NumRows() {
		t.Fatalf("Count = %d, want %d", n, d.NumRows())
	}
}

func TestCollectMatchesDataset(t *testing.T) {
	_, r, d := testSetup(t, 2, 4)
	pts, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != d.NumRows() {
		t.Fatalf("collected %d, want %d", len(pts), d.NumRows())
	}
	seen := map[int]bool{}
	for _, p := range pts {
		if seen[p.GlobalIndex] {
			t.Fatalf("duplicate global index %d", p.GlobalIndex)
		}
		seen[p.GlobalIndex] = true
		if p.Y != d.Y[p.GlobalIndex] {
			t.Fatalf("label mismatch at %d", p.GlobalIndex)
		}
	}
}

func TestReduceSumsLabels(t *testing.T) {
	_, r, d := testSetup(t, 2, 4)
	ys := Map(r, func(p Point) float64 { return p.Y })
	got, err := ys.Reduce(func(a, b float64) float64 { return a + b })
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, y := range d.Y {
		want += y
	}
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("Reduce = %v, want %v", got, want)
	}
}

func TestReduceEmptyRDDFails(t *testing.T) {
	_, r, _ := testSetup(t, 2, 4)
	empty := r.Filter(func(Point) bool { return false })
	if _, err := empty.Reduce(func(a, b Point) Point { return a }); err == nil {
		t.Fatal("reduce of empty RDD succeeded")
	}
}

func TestReduceWithSomeEmptyPartitions(t *testing.T) {
	_, r, _ := testSetup(t, 2, 4)
	// keep only global index 0 — three of four partitions become empty
	one := r.Filter(func(p Point) bool { return p.GlobalIndex == 0 })
	got, err := Map(one, func(Point) int { return 1 }).Reduce(func(a, b int) int { return a + b })
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("Reduce = %d, want 1", got)
	}
}

func TestAggregate(t *testing.T) {
	_, r, d := testSetup(t, 2, 4)
	type acc struct {
		N   int
		Sum float64
	}
	got, err := Aggregate(r, acc{},
		func(a acc, p Point) acc { return acc{a.N + 1, a.Sum + p.Y} },
		func(a, b acc) acc { return acc{a.N + b.N, a.Sum + b.Sum} })
	if err != nil {
		t.Fatal(err)
	}
	if got.N != d.NumRows() {
		t.Fatalf("Aggregate N = %d, want %d", got.N, d.NumRows())
	}
}

func TestFilterAndMapChain(t *testing.T) {
	_, r, d := testSetup(t, 2, 4)
	pos := r.Filter(func(p Point) bool { return p.Y > 0 })
	n, err := pos.Count()
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, y := range d.Y {
		if y > 0 {
			want++
		}
	}
	if n != want {
		t.Fatalf("filtered count = %d, want %d", n, want)
	}
}

func TestSampleFraction(t *testing.T) {
	_, r, d := testSetup(t, 2, 4)
	var total int
	const trials = 30
	for i := 0; i < trials; i++ {
		n, err := r.Sample(0.25).Count()
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	mean := float64(total) / trials
	want := 0.25 * float64(d.NumRows())
	if mean < want*0.6 || mean > want*1.4 {
		t.Fatalf("mean sample size %.1f, want ≈ %.1f", mean, want)
	}
}

func TestSampleBadFraction(t *testing.T) {
	_, r, _ := testSetup(t, 2, 4)
	if _, err := r.Sample(0).Count(); err == nil {
		t.Fatal("zero fraction accepted")
	}
	if _, err := r.Sample(1.5).Count(); err == nil {
		t.Fatal("fraction > 1 accepted")
	}
}

func TestMapPartitions(t *testing.T) {
	_, r, _ := testSetup(t, 2, 4)
	sizes, err := MapPartitions(r, func(part int, in []Point) ([]int, error) {
		return []int{len(in)}, nil
	}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 4 {
		t.Fatalf("got %d partition sizes", len(sizes))
	}
	sum := 0
	for _, s := range sizes {
		sum += s
	}
	if sum != 64 {
		t.Fatalf("sizes sum to %d, want 64", sum)
	}
}

func TestRecoveryAfterWorkerDeath(t *testing.T) {
	ctx, r, d := testSetup(t, 3, 6)
	// kill a worker, then run an action: RunSync must recover its partitions
	ctx.Cluster().Kill(1)
	n, err := r.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != d.NumRows() {
		t.Fatalf("Count after death = %d, want %d", n, d.NumRows())
	}
	// every partition must now be placed on a live worker
	for _, p := range ctx.AllPartitions() {
		w, err := ctx.WorkerFor(p)
		if err != nil {
			t.Fatal(err)
		}
		if !ctx.Cluster().Alive(w) {
			t.Fatalf("partition %d still on dead worker %d", p, w)
		}
	}
}

func TestRecoveryMidFlight(t *testing.T) {
	ctx, r, d := testSetup(t, 3, 3)
	// a slow map gives us time to kill the worker while tasks are in flight
	slow := Map(r, func(p Point) Point {
		time.Sleep(time.Millisecond)
		return p
	})
	done := make(chan int, 1)
	errc := make(chan error, 1)
	go func() {
		n, err := slow.Count()
		if err != nil {
			errc <- err
			return
		}
		done <- n
	}()
	time.Sleep(5 * time.Millisecond)
	ctx.Cluster().Kill(0)
	select {
	case n := <-done:
		if n != d.NumRows() {
			t.Fatalf("Count = %d, want %d", n, d.NumRows())
		}
	case err := <-errc:
		t.Fatalf("action failed after mid-flight death: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("action hung after mid-flight death")
	}
}

func TestRecoverNoLineageRoot(t *testing.T) {
	ctx, _, _ := testSetup(t, 2, 2)
	if _, err := ctx.Recover(42); err == nil {
		t.Fatal("recovering unknown partition succeeded")
	}
}

func TestBroadcastQuietServedByFetch(t *testing.T) {
	ctx, r, _ := testSetup(t, 2, 2)
	b := ctx.Broadcast("lazy", la.Vec{4, 5})
	// a task resolving the broadcast must succeed via the fetch path
	results, err := ctx.RunSync(r.partitions(), func(part int) *cluster.Task {
		tk := &cluster.Task{ID: ctx.Cluster().NextTaskID(), Partition: part}
		tk.SetFunc(func(env *cluster.Env, task *cluster.Task) (any, error) {
			v, err := env.BroadcastValue(b.ID, b.Version)
			if err != nil {
				return nil, err
			}
			return la.Norm2(v.(la.Vec)), nil
		})
		return tk
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.Payload.(float64) == 0 {
			t.Fatal("broadcast value empty")
		}
	}
}

func TestBroadcastVersionsDistinct(t *testing.T) {
	ctx, _, _ := testSetup(t, 1, 1)
	b1 := ctx.Broadcast("w", 1)
	b2 := ctx.Broadcast("w", 2)
	if b1.Version == b2.Version {
		t.Fatal("broadcast versions collide")
	}
	v1, _ := ctx.DriverValue(b1)
	v2, _ := ctx.DriverValue(b2)
	if v1 != 1 || v2 != 2 {
		t.Fatalf("history lost: %v %v", v1, v2)
	}
}

func TestDriverValueUnknown(t *testing.T) {
	ctx, _, _ := testSetup(t, 1, 1)
	if _, err := ctx.DriverValue(Broadcast{ID: "x", Version: 999}); err == nil {
		t.Fatal("unknown broadcast accepted")
	}
}
