package async_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/async"
	"repro/internal/dataset"
	"repro/internal/la"
	"repro/internal/opt"
)

func tinyData(t *testing.T, seed int64) *dataset.Dataset {
	t.Helper()
	d, err := dataset.Generate(dataset.EpsilonLike(dataset.ScaleTiny, seed))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func tinyParams(updates int) opt.Params {
	return opt.Params{
		Step:          opt.Constant{A: 0.001},
		SampleFrac:    0.5,
		Updates:       updates,
		SnapshotEvery: 50,
	}
}

func TestOptionValidation(t *testing.T) {
	bad := []struct {
		name string
		opt  async.Option
	}{
		{"WithWorkers(0)", async.WithWorkers(0)},
		{"WithWorkers(-3)", async.WithWorkers(-3)},
		{"WithPartitions(0)", async.WithPartitions(0)},
		{"WithTransport(nil)", async.WithTransport(nil)},
		{"WithBarrier(nil)", async.WithBarrier(nil)},
		{"WithMinTaskTime(-1)", async.WithMinTaskTime(-time.Millisecond)},
	}
	for _, tc := range bad {
		if eng, err := async.New(tc.opt); err == nil {
			eng.Close()
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestEngineDefaults(t *testing.T) {
	eng, err := async.New()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if got := eng.Workers(); got != 4 {
		t.Fatalf("default workers = %d, want 4", got)
	}
	if eng.Points() != nil {
		t.Fatal("points non-nil before Distribute")
	}
}

func TestCloseIdempotent(t *testing.T) {
	eng, err := async.New(async.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := eng.Distribute(tinyData(t, 1)); !errors.Is(err, async.ErrClosed) {
		t.Fatalf("Distribute after Close: %v, want ErrClosed", err)
	}
	if _, err := eng.Solve(context.Background(), "asgd", tinyData(t, 1),
		async.SolveOptions{Params: tinyParams(10)}); !errors.Is(err, async.ErrClosed) {
		t.Fatalf("Solve after Close: %v, want ErrClosed", err)
	}
}

func TestDistributeReturnsLiveHandle(t *testing.T) {
	eng, err := async.New(async.WithWorkers(2), async.WithPartitions(4), async.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	d := tinyData(t, 2)
	points, err := eng.Distribute(d)
	if err != nil {
		t.Fatal(err)
	}
	if points.NumPartitions() != 4 {
		t.Fatalf("partitions = %d, want 4", points.NumPartitions())
	}
	rows, err := points.Count()
	if err != nil {
		t.Fatal(err)
	}
	if rows != d.NumRows() {
		t.Fatalf("distributed rows = %d, want %d", rows, d.NumRows())
	}
	// idempotent for the same dataset, rejected for a different one
	again, err := eng.Distribute(d)
	if err != nil || again != points {
		t.Fatalf("re-Distribute same dataset: %v, %p vs %p", err, again, points)
	}
	if _, err := eng.Distribute(tinyData(t, 3)); err == nil {
		t.Fatal("second dataset accepted on one engine")
	}
}

func TestReleaseSwapsDataset(t *testing.T) {
	eng, err := async.New(async.WithWorkers(2), async.WithSeed(23))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	a, b := tinyData(t, 30), tinyData(t, 31)
	if _, err := eng.Solve(context.Background(), "asgd", a, async.SolveOptions{Params: tinyParams(20)}); err != nil {
		t.Fatal(err)
	}
	if eng.Dataset() != a {
		t.Fatal("engine does not report held dataset")
	}
	// a different dataset is rejected until the first is released
	if _, err := eng.Distribute(b); err == nil {
		t.Fatal("second dataset accepted without Release")
	}
	if err := eng.Release(); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if eng.Dataset() != nil {
		t.Fatal("dataset still held after Release")
	}
	if err := eng.Release(); err != nil {
		t.Fatalf("idempotent Release: %v", err)
	}
	// the same engine now solves on the new dataset end to end
	res, err := eng.Solve(context.Background(), "asgd", b, async.SolveOptions{Params: tinyParams(20)})
	if err != nil {
		t.Fatalf("Solve after Release: %v", err)
	}
	if len(res.W) != b.NumCols() {
		t.Fatalf("model dim %d, want %d", len(res.W), b.NumCols())
	}
	rows, err := eng.Points().Count()
	if err != nil {
		t.Fatal(err)
	}
	if rows != b.NumRows() {
		t.Fatalf("distributed rows = %d, want %d", rows, b.NumRows())
	}
}

func TestProgressCallback(t *testing.T) {
	eng, err := async.New(async.WithWorkers(2), async.WithSeed(37))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var events []opt.Progress
	p := tinyParams(40)
	p.SnapshotEvery = 10
	p.OnProgress = func(pr opt.Progress) { events = append(events, pr) }
	if _, err := eng.Solve(context.Background(), "asgd", tinyData(t, 33), async.SolveOptions{Params: p}); err != nil {
		t.Fatal(err)
	}
	if len(events) < 3 {
		t.Fatalf("got %d progress events, want >= 3", len(events))
	}
	last := events[len(events)-1]
	if !last.Final {
		t.Fatal("last progress event not marked final")
	}
	if last.Updates < 40 {
		t.Fatalf("final event at %d updates, want >= 40", last.Updates)
	}
	if len(last.W) == 0 {
		t.Fatal("progress event missing model snapshot")
	}
}

func TestSolveByName(t *testing.T) {
	eng, err := async.New(async.WithWorkers(2), async.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	d := tinyData(t, 4)
	res, err := eng.Solve(context.Background(), "ASGD", d, async.SolveOptions{Params: tinyParams(40)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || len(res.W) != d.NumCols() {
		t.Fatalf("malformed result: %+v", res)
	}
	if _, err := eng.Solve(context.Background(), "no-such-algo", d, async.SolveOptions{Params: tinyParams(10)}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestSolveCancellationMidRun(t *testing.T) {
	eng, err := async.New(
		async.WithWorkers(2),
		async.WithSeed(11),
		async.WithMinTaskTime(2*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	d := tinyData(t, 6)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	// a budget far beyond what 50ms of 2ms-floor tasks can deliver
	_, err = eng.Solve(ctx, "asgd", d, async.SolveOptions{Params: tinyParams(1_000_000)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Solve returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v to propagate", elapsed)
	}
	// the engine stays usable after a cancelled run
	if _, err := eng.Solve(context.Background(), "asgd", d, async.SolveOptions{Params: tinyParams(20)}); err != nil {
		t.Fatalf("Solve after cancellation: %v", err)
	}
}

func TestSolveDeadline(t *testing.T) {
	eng, err := async.New(async.WithWorkers(2), async.WithSeed(13), async.WithMinTaskTime(2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err = eng.Solve(ctx, "saga", tinyData(t, 8), async.SolveOptions{Params: tinyParams(1_000_000)})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline Solve returned %v, want context.DeadlineExceeded", err)
	}
}

func TestMllibSolverHonoursCancellation(t *testing.T) {
	// mllib-sgd bypasses the AC, so its cancellation path is a per-round
	// ctx check rather than Context.Bind — it must still stop mid-run.
	eng, err := async.New(async.WithWorkers(2), async.WithSeed(19), async.WithMinTaskTime(2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err = eng.Solve(ctx, "mllib-sgd", tinyData(t, 10), async.SolveOptions{Params: tinyParams(1_000_000)})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mllib-sgd under deadline returned %v, want context.DeadlineExceeded", err)
	}
}

func TestConcurrentSolveRejected(t *testing.T) {
	eng, err := async.New(async.WithWorkers(2), async.WithSeed(29), async.WithMinTaskTime(2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	d := tinyData(t, 12)
	started := make(chan struct{})
	firstDone := make(chan error, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		close(started)
		_, err := eng.Solve(ctx, "asgd", d, async.SolveOptions{Params: tinyParams(1_000_000)})
		firstDone <- err
	}()
	<-started
	time.Sleep(30 * time.Millisecond) // let the first solve get in flight
	if _, err := eng.Solve(context.Background(), "asgd", d, async.SolveOptions{Params: tinyParams(10)}); !errors.Is(err, async.ErrBusy) {
		t.Fatalf("second concurrent Solve returned %v, want ErrBusy", err)
	}
	cancel()
	if err := <-firstDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("first solve: %v", err)
	}
	// sequential solves still work once the engine is free again
	if _, err := eng.Solve(context.Background(), "asgd", d, async.SolveOptions{Params: tinyParams(10)}); err != nil {
		t.Fatalf("Solve after ErrBusy window: %v", err)
	}
}

func TestEngineBarrierDefault(t *testing.T) {
	// An SSP default via WithBarrier must flow into solves that leave
	// Barrier nil; the run should still converge on a tiny budget.
	eng, err := async.New(async.WithWorkers(2), async.WithSeed(17), async.WithBarrier(async.SSP(8)))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Solve(context.Background(), "asgd", tinyData(t, 9),
		async.SolveOptions{Params: tinyParams(30)}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointEveryAndSolveFrom covers the mid-run checkpoint surface of
// the facade: a solve's CheckpointEvery cadence feeds its OnCheckpoint
// observer, and Solve with Params.Resume continues the captured driver
// state (the resumed trace picks up at the checkpoint's clock and runs out
// the remaining global budget).
func TestCheckpointEveryAndSolveFrom(t *testing.T) {
	eng, err := async.New(async.WithWorkers(1), async.WithPartitions(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	d := tinyData(t, 5)
	resume := func(cp *opt.Checkpoint) (*async.Result, error) {
		opts := async.SolveOptions{Params: tinyParams(60)}
		opts.Params.Resume = cp
		return eng.Solve(context.Background(), cp.Algorithm, d, opts)
	}

	var cps []*opt.Checkpoint
	opts := async.SolveOptions{Params: tinyParams(60)}
	opts.Params.CheckpointEvery = 20
	opts.Params.OnCheckpoint = func(cp *opt.Checkpoint) { cps = append(cps, cp) }
	res, err := eng.Solve(context.Background(), "asgd", d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 3 {
		t.Fatalf("cadence 20 over 60 updates captured %d checkpoints, want 3", len(cps))
	}
	mid := cps[1]
	if mid.Algorithm != "asgd" || mid.Updates != 40 {
		t.Fatalf("checkpoint %+v, want asgd@40", mid)
	}

	resumed, err := resume(mid)
	if err != nil {
		t.Fatal(err)
	}
	if got := resumed.Trace.Points[0].Updates; got != 40 {
		t.Fatalf("resumed trace starts at %d, want 40", got)
	}
	if got := resumed.Trace.Points[len(resumed.Trace.Points)-1].Updates; got != 60 {
		t.Fatalf("resumed trace ends at %d, want 60", got)
	}
	if len(resumed.W) != len(res.W) {
		t.Fatalf("resumed model dim %d != %d", len(resumed.W), len(res.W))
	}

	// a checkpoint written when asgd had a TCP-only twin and a momentum
	// option names that twin and may carry a velocity: the alias resolves
	// and the velocity is ignored, so it resumes like the original
	old := *mid
	old.Algorithm = "asgd-remote"
	old.Vecs = map[string]la.Vec{"vel": make(la.Vec, len(mid.W))}
	again, err := resume(&old)
	if err != nil {
		t.Fatalf("resume of an asgd-remote checkpoint: %v", err)
	}
	if !la.Equal(again.W, resumed.W, 0) {
		t.Fatal("the asgd-remote checkpoint resumed to a different model than its asgd original")
	}

	// a checkpoint without a model is refused before the run starts
	if _, err := resume(&opt.Checkpoint{Algorithm: "asgd"}); err == nil {
		t.Fatal("invalid checkpoint accepted")
	}
}
