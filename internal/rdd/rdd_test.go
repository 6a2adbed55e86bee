package rdd

import (
	"math"
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
	if len(ctx.placement) != 6 {
		t.Fatalf("ctx partitions = %d", len(ctx.placement))
	}
	counts := map[int]int{}
	for p := 0; p < len(ctx.placement); p++ {
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

func TestAggregate(t *testing.T) {
	_, r, d := testSetup(t, 2, 4)
	type acc struct {
		N   int
		Sum float64
	}
	seq := func(a acc, p Point) acc { return acc{a.N + 1, a.Sum + p.Y} }
	comb := func(a, b acc) acc { return acc{a.N + b.N, a.Sum + b.Sum} }
	got, err := Aggregate(r, acc{}, seq, comb)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, y := range d.Y {
		sum += y
	}
	if got.N != d.NumRows() || math.Abs(got.Sum-sum) > 1e-9 {
		t.Fatalf("Aggregate = %+v, want N %d and sum %v", got, d.NumRows(), sum)
	}
	// three of four partitions empty: each contributes the zero value
	one := r.Filter(func(p Point) bool { return p.GlobalIndex == 0 })
	if got, err := Aggregate(one, acc{}, seq, comb); err != nil || got.N != 1 || got.Sum != d.Y[0] {
		t.Fatalf("Aggregate over mostly empty partitions = %+v, %v; want row 0 alone", got, err)
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
	for p := 0; p < len(ctx.placement); p++ {
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
	// a slow pass gives us time to kill the worker while tasks are in flight
	slow := r.Filter(func(Point) bool {
		time.Sleep(time.Millisecond)
		return true
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
	v1, _ := driverValue(ctx, b1)
	v2, _ := driverValue(ctx, b2)
	if v1 != 1 || v2 != 2 {
		t.Fatalf("history lost: %v %v", v1, v2)
	}
}

func TestDriverValueUnknown(t *testing.T) {
	ctx, _, _ := testSetup(t, 1, 1)
	if _, err := driverValue(ctx, Broadcast{ID: "x", Version: 999}); err == nil {
		t.Fatal("unknown broadcast accepted")
	}
}

// Collect gathers every element to the driver.
func (r *RDD[T]) Collect() ([]T, error) {
	results, err := r.ctx.RunSync(r.partitions(), func(part int) *cluster.Task {
		return partitionTask(r, part, func(in []T) ([]T, error) { return in, nil })
	})
	if err != nil {
		return nil, err
	}
	var out []T
	for _, res := range results {
		out = append(out, res.Payload.([]T)...)
	}
	return out, nil
}

// Filter keeps the elements satisfying pred.
func (r *RDD[T]) Filter(pred func(T) bool) *RDD[T] {
	parent := r.compute
	return NewRDD(r.ctx, r.nParts, func(env *cluster.Env, part int, seed int64) ([]T, error) {
		in, err := parent(env, part, seed)
		if err != nil {
			return nil, err
		}
		out := in[:0:0]
		for _, v := range in {
			if pred(v) {
				out = append(out, v)
			}
		}
		return out, nil
	})
}
