package rdd

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/la"
)

func TestPruneBroadcastKeepsLatest(t *testing.T) {
	ctx, _, _ := testSetup(t, 1, 1)
	var last Broadcast
	for i := 0; i < 10; i++ {
		last = ctx.Broadcast("p", i)
	}
	// registering already trimmed the id to 4·workers
	if n := ctx.DriverVersions()["p"]; n != 4 {
		t.Fatalf("%d versions held after 10 broadcasts on one worker, want 4", n)
	}
	ctx.PruneBroadcast("p", 3)
	// the latest must survive
	v, err := ctx.DriverValue(last)
	if err != nil {
		t.Fatalf("latest version pruned: %v", err)
	}
	if v != 9 {
		t.Fatalf("latest value %v", v)
	}
	// the oldest must be gone
	if _, err := ctx.DriverValue(Broadcast{ID: "p", Version: last.Version - 9}); err == nil {
		t.Fatal("oldest version survived prune to 3")
	}
	// prune with keep < 1 clamps to 1
	ctx.PruneBroadcast("p", 0)
	if _, err := ctx.DriverValue(last); err != nil {
		t.Fatal("prune(0) removed the latest version")
	}
}

func TestMovePartitionUpdatesByWorker(t *testing.T) {
	ctx, _, _ := testSetup(t, 2, 4)
	part := 0
	from, err := ctx.WorkerFor(part)
	if err != nil {
		t.Fatal(err)
	}
	to := 1 - from
	before := len(ctx.PartitionsOn(to))
	if err := ctx.MovePartition(part, to); err != nil {
		t.Fatal(err)
	}
	if got := len(ctx.PartitionsOn(to)); got != before+1 {
		t.Fatalf("target owns %d partitions, want %d", got, before+1)
	}
	for _, p := range ctx.PartitionsOn(from) {
		if p == part {
			t.Fatal("source still listed as owner")
		}
	}
}

func TestSampleSeedDeterminism(t *testing.T) {
	ctx, r, _ := testSetup(t, 1, 2)
	s := r.Sample(0.5)
	compute := s.Compute()
	// same seed → same sample; different seed → (almost surely) different
	env := clusterEnvFor(t, ctx, 0)
	a1, err := compute(env, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := compute(env, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(a1) != len(a2) {
		t.Fatalf("same seed, different sample sizes %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i].GlobalIndex != a2[i].GlobalIndex {
			t.Fatal("same seed, different samples")
		}
	}
}

// clusterEnvFor builds a local Env with the same partition contents the
// cluster worker holds (for direct compute testing).
func clusterEnvFor(t *testing.T, ctx *Context, part int) *cluster.Env {
	t.Helper()
	env := cluster.NewEnv(0, 1, nil)
	ctx.mu.Lock()
	m := ctx.master[part]
	ctx.mu.Unlock()
	if m == nil {
		t.Fatalf("no master for partition %d", part)
	}
	if err := env.InstallPartition(m); err != nil {
		t.Fatal(err)
	}
	return env
}

func TestCollectEmptyRDD(t *testing.T) {
	_, r, _ := testSetup(t, 2, 2)
	empty := r.Filter(func(Point) bool { return false })
	pts, err := empty.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 0 {
		t.Fatalf("collected %d from empty RDD", len(pts))
	}
	n, err := empty.Count()
	if err != nil || n != 0 {
		t.Fatalf("count = %d, %v", n, err)
	}
}

func TestPointRowViewMatchesDataset(t *testing.T) {
	_, r, d := testSetup(t, 2, 4)
	pts, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		want := d.X.Row(p.GlobalIndex)
		if !la.Equal(p.X.Dense(), want.Dense(), 0) {
			t.Fatalf("row %d features differ", p.GlobalIndex)
		}
	}
}

func TestAllPartitionsSorted(t *testing.T) {
	ctx, _, _ := testSetup(t, 3, 6)
	parts := ctx.AllPartitions()
	if len(parts) != 6 {
		t.Fatalf("parts = %v", parts)
	}
	for i := 1; i < len(parts); i++ {
		if parts[i] <= parts[i-1] {
			t.Fatalf("not sorted: %v", parts)
		}
	}
}
