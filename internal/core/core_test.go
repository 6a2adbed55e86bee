package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/la"
	"repro/internal/rdd"
	"repro/internal/straggler"
)

func setup(t *testing.T, workers, parts int, delay straggler.Model) (*Context, *rdd.RDD[rdd.Point]) {
	t.Helper()
	c, err := cluster.NewLocal(cluster.Config{NumWorkers: workers, Delay: delay, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	rctx := rdd.NewContext(c)
	d, err := dataset.Generate(dataset.SynthConfig{
		Name: "t", Rows: 96, Cols: 6, NNZPerRow: 3, Noise: 0.1, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	points, err := rctx.Distribute(d, parts)
	if err != nil {
		t.Fatal(err)
	}
	ac := New(rctx)
	t.Cleanup(ac.Close)
	return ac, points
}

func countKernel(env *cluster.Env, parts []int, seed int64) (any, int, error) {
	n := 0
	for _, p := range parts {
		part, err := env.Partition(p)
		if err != nil {
			return nil, 0, err
		}
		n += part.NumRows()
	}
	return n, n, nil
}

func TestSTATInitial(t *testing.T) {
	ac, _ := setup(t, 4, 4, nil)
	st := ac.STAT()
	if st.AliveWorkers != 4 || st.AvailableWorkers != 4 {
		t.Fatalf("stat %+v", st)
	}
	if st.MaxStaleness != 0 || st.Updates != 0 || st.Pending != 0 {
		t.Fatalf("stat %+v", st)
	}
	if len(st.Available()) != 4 {
		t.Fatalf("available %v", st.Available())
	}
	for i, w := range st.Workers {
		if w.Worker != i {
			t.Fatalf("workers not sorted: %v", st.Workers)
		}
	}
}

func TestASPBarrierSelectsAllAvailable(t *testing.T) {
	ac, _ := setup(t, 3, 3, nil)
	sel, err := ac.ASYNCbarrier(ASP(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Workers) != 3 {
		t.Fatalf("selected %v", sel.Workers)
	}
	// reserved workers are no longer available
	if got := ac.STAT().AvailableWorkers; got != 0 {
		t.Fatalf("available after barrier = %d", got)
	}
	sel.Release()
	if got := ac.STAT().AvailableWorkers; got != 3 {
		t.Fatalf("available after release = %d", got)
	}
}

func TestBarrierFilter(t *testing.T) {
	ac, _ := setup(t, 4, 4, nil)
	sel, err := ac.ASYNCbarrier(ASP(), func(w WorkerStat) bool { return w.Worker%2 == 0 })
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Workers) != 2 {
		t.Fatalf("selected %v", sel.Workers)
	}
	for _, w := range sel.Workers {
		if w%2 != 0 {
			t.Fatalf("filter violated: %v", sel.Workers)
		}
	}
	sel.Release()
}

func TestASYNCreduceDeliversResults(t *testing.T) {
	ac, _ := setup(t, 3, 6, nil)
	sel, err := ac.ASYNCbarrier(ASP(), nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := ac.ASYNCreduce(sel, countKernel)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("dispatched %d", n)
	}
	total := 0
	for i := 0; i < n; i++ {
		tr, err := ac.ASYNCcollectAll()
		if err != nil {
			t.Fatal(err)
		}
		total += tr.Payload.(int)
		if tr.Attrs.MiniBatch == 0 {
			t.Fatalf("mini-batch attr missing: %+v", tr.Attrs)
		}
		if tr.Attrs.Staleness != 0 {
			t.Fatalf("staleness %d with no updates", tr.Attrs.Staleness)
		}
	}
	if total != 96 {
		t.Fatalf("total rows %d, want 96", total)
	}
	// all workers available again
	if got := ac.STAT().AvailableWorkers; got != 3 {
		t.Fatalf("available = %d", got)
	}
}

func TestStalenessTracksClock(t *testing.T) {
	ac, _ := setup(t, 2, 2, nil)
	sel, err := ac.ASYNCbarrier(ASP(), nil)
	if err != nil {
		t.Fatal(err)
	}
	slowKernel := func(env *cluster.Env, parts []int, seed int64) (any, int, error) {
		time.Sleep(50 * time.Millisecond)
		return 1, 1, nil
	}
	if _, err := ac.ASYNCreduce(sel, slowKernel); err != nil {
		t.Fatal(err)
	}
	// advance the clock 5 times while tasks are in flight
	for i := 0; i < 5; i++ {
		ac.AdvanceClock()
	}
	for i := 0; i < 2; i++ {
		tr, err := ac.ASYNCcollectAll()
		if err != nil {
			t.Fatal(err)
		}
		if tr.Attrs.Staleness != 5 {
			t.Fatalf("staleness = %d, want 5", tr.Attrs.Staleness)
		}
	}
}

func TestBSPBarrierWaitsForAllWorkers(t *testing.T) {
	ac, _ := setup(t, 2, 2, nil)
	sel, _ := ac.ASYNCbarrier(ASP(), nil)
	slow := func(env *cluster.Env, parts []int, seed int64) (any, int, error) {
		time.Sleep(80 * time.Millisecond)
		return 1, 1, nil
	}
	if _, err := ac.ASYNCreduce(sel, slow); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	sel2, err := ac.ASYNCbarrier(BSP(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("BSP barrier opened after %v, before workers finished", elapsed)
	}
	if len(sel2.Workers) != 2 {
		t.Fatalf("BSP selected %v", sel2.Workers)
	}
	sel2.Release()
}

func TestSSPBarrierBlocksOnStaleness(t *testing.T) {
	ac, _ := setup(t, 2, 2, nil)
	ac.BarrierTimeout = 300 * time.Millisecond
	sel, _ := ac.ASYNCbarrier(ASP(), nil)
	block := make(chan struct{})
	kern := func(env *cluster.Env, parts []int, seed int64) (any, int, error) {
		<-block
		return 1, 1, nil
	}
	if _, err := ac.ASYNCreduce(sel, kern); err != nil {
		t.Fatal(err)
	}
	// make in-flight tasks very stale
	for i := 0; i < 10; i++ {
		ac.AdvanceClock()
	}
	// SSP with threshold 3 must time out: staleness is 10
	_, err := ac.ASYNCbarrier(SSP(3), nil)
	if !errors.Is(err, ErrBarrierTimeout) {
		t.Fatalf("SSP barrier: %v, want timeout", err)
	}
	close(block)
	// after results arrive, staleness resets on completion; new tasks start fresh
	for i := 0; i < 2; i++ {
		if _, err := ac.ASYNCcollect(); err != nil {
			t.Fatal(err)
		}
	}
	sel3, err := ac.ASYNCbarrier(SSP(20), nil)
	if err != nil {
		t.Fatal(err)
	}
	sel3.Release()
}

func TestMinAvailableBarrier(t *testing.T) {
	ac, _ := setup(t, 4, 4, nil)
	// occupy two workers
	sel, _ := ac.ASYNCbarrier(ASP(), func(w WorkerStat) bool { return w.Worker < 2 })
	block := make(chan struct{})
	kern := func(env *cluster.Env, parts []int, seed int64) (any, int, error) {
		<-block
		return 1, 1, nil
	}
	if _, err := ac.ASYNCreduce(sel, kern); err != nil {
		t.Fatal(err)
	}
	// β=0.5 of 4 alive = 2 available required; exactly 2 remain → opens
	sel2, err := ac.ASYNCbarrier(MinAvailable(0.5), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel2.Workers) != 2 {
		t.Fatalf("selected %v", sel2.Workers)
	}
	sel2.Release()
	// β=0.9 needs 3 available; only 2 → timeout
	ac.BarrierTimeout = 200 * time.Millisecond
	if _, err := ac.ASYNCbarrier(MinAvailable(0.9), nil); !errors.Is(err, ErrBarrierTimeout) {
		t.Fatalf("barrier: %v, want timeout", err)
	}
	close(block)
	for i := 0; i < 2; i++ {
		if _, err := ac.ASYNCcollect(); err != nil {
			t.Fatal(err)
		}
	}
}

// mapRDD is the element-wise transformation, built on the parent's lineage
// function.
func mapRDD[T, U any](ctx *rdd.Context, r *rdd.RDD[T], f func(T) U) *rdd.RDD[U] {
	parent := r.Compute()
	return rdd.NewRDD(ctx, r.NumPartitions(), func(env *cluster.Env, part int, seed int64) ([]U, error) {
		in, err := parent(env, part, seed)
		if err != nil {
			return nil, err
		}
		out := make([]U, len(in))
		for i, v := range in {
			out[i] = f(v)
		}
		return out, nil
	})
}

func TestASYNCreduceRDDMatchesSyncReduce(t *testing.T) {
	ac, points := setup(t, 2, 4, nil)
	ys := mapRDD(ac.RDD(), points, func(p rdd.Point) float64 { return p.Y })
	add := func(a, b float64) float64 { return a + b }
	want, err := rdd.Aggregate(ys, 0, add, add)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := ac.ASYNCbarrier(BSP(), nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := ASYNCreduceRDD(ac, ys, add, sel)
	if err != nil {
		t.Fatal(err)
	}
	var got float64
	for i := 0; i < n; i++ {
		p, err := ac.ASYNCcollect()
		if err != nil {
			t.Fatal(err)
		}
		got += p.(float64)
	}
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("async sum %v != sync sum %v", got, want)
	}
}

func TestASYNCaggregate(t *testing.T) {
	ac, points := setup(t, 2, 4, nil)
	sel, err := ac.ASYNCbarrier(ASP(), nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := ASYNCaggregate(ac, points, 0,
		func(acc int, p rdd.Point) int { return acc + 1 },
		func(a, b int) int { return a + b }, sel)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := 0; i < n; i++ {
		p, err := ac.ASYNCcollect()
		if err != nil {
			t.Fatal(err)
		}
		total += p.(int)
	}
	if total != 96 {
		t.Fatalf("aggregate count %d, want 96", total)
	}
}

func TestCollectWithNothingPendingFails(t *testing.T) {
	ac, _ := setup(t, 2, 2, nil)
	if _, err := ac.ASYNCcollect(); err == nil {
		t.Fatal("collect with nothing in flight succeeded")
	}
}

func TestHasNextLifecycle(t *testing.T) {
	ac, _ := setup(t, 1, 1, nil)
	if ac.HasNext() {
		t.Fatal("HasNext true before any dispatch")
	}
	sel, _ := ac.ASYNCbarrier(ASP(), nil)
	if _, err := ac.ASYNCreduce(sel, countKernel); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !ac.HasNext() {
		if time.Now().After(deadline) {
			t.Fatal("result never became visible")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := ac.ASYNCcollect(); err != nil {
		t.Fatal(err)
	}
	if ac.HasNext() {
		t.Fatal("HasNext true after draining")
	}
}

func TestSelectionDoubleUseIsNoop(t *testing.T) {
	ac, _ := setup(t, 2, 2, nil)
	sel, _ := ac.ASYNCbarrier(ASP(), nil)
	n1, err := ac.ASYNCreduce(sel, countKernel)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := ac.ASYNCreduce(sel, countKernel)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != 2 || n2 != 0 {
		t.Fatalf("dispatch counts %d, %d", n1, n2)
	}
	for i := 0; i < n1; i++ {
		if _, err := ac.ASYNCcollect(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWorkerDeathDuringTask(t *testing.T) {
	ac, _ := setup(t, 3, 3, nil)
	sel, _ := ac.ASYNCbarrier(ASP(), nil)
	slow := func(env *cluster.Env, parts []int, seed int64) (any, int, error) {
		time.Sleep(100 * time.Millisecond)
		return 1, 1, nil
	}
	if _, err := ac.ASYNCreduce(sel, slow); err != nil {
		t.Fatal(err)
	}
	ac.RDD().Cluster().Kill(0)
	// the sweeper must clear the dead worker's in-flight slot so pending
	// drains to the two surviving results
	got := 0
	for i := 0; i < 2; i++ {
		if _, err := ac.ASYNCcollect(); err != nil {
			t.Fatalf("collect %d: %v", i, err)
		}
		got++
	}
	deadline := time.Now().Add(3 * time.Second)
	for ac.coord.Pending() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pending stuck at %d after worker death", ac.coord.Pending())
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := ac.STAT()
	if st.AliveWorkers != 2 {
		t.Fatalf("alive = %d, want 2", st.AliveWorkers)
	}
	// further barriers exclude the dead worker
	sel2, err := ac.ASYNCbarrier(ASP(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range sel2.Workers {
		if w == 0 {
			t.Fatal("dead worker selected")
		}
	}
	sel2.Release()
}

func TestBarrierErrNoWorkers(t *testing.T) {
	ac, _ := setup(t, 1, 1, nil)
	ac.RDD().Cluster().Kill(0)
	time.Sleep(120 * time.Millisecond) // let the sweeper observe the death
	if _, err := ac.ASYNCbarrier(ASP(), nil); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("barrier: %v, want ErrNoWorkers", err)
	}
}

func TestAvgTaskTimeTracked(t *testing.T) {
	ac, _ := setup(t, 1, 1, nil)
	for round := 0; round < 3; round++ {
		sel, err := ac.ASYNCbarrier(ASP(), nil)
		if err != nil {
			t.Fatal(err)
		}
		kern := func(env *cluster.Env, parts []int, seed int64) (any, int, error) {
			time.Sleep(20 * time.Millisecond)
			return 1, 1, nil
		}
		if _, err := ac.ASYNCreduce(sel, kern); err != nil {
			t.Fatal(err)
		}
		if _, err := ac.ASYNCcollect(); err != nil {
			t.Fatal(err)
		}
	}
	st := ac.STAT()
	w := st.Workers[0]
	if w.TasksCompleted != 3 {
		t.Fatalf("completed = %d", w.TasksCompleted)
	}
	if w.AvgTaskTime < 15*time.Millisecond {
		t.Fatalf("avg task time %v too small", w.AvgTaskTime)
	}
}

func TestMaxAvgTaskTimeFilter(t *testing.T) {
	f := MaxAvgTaskTime(10 * time.Millisecond)
	if !f(WorkerStat{AvgTaskTime: 0}) {
		t.Fatal("fresh worker rejected")
	}
	if !f(WorkerStat{AvgTaskTime: 5 * time.Millisecond}) {
		t.Fatal("fast worker rejected")
	}
	if f(WorkerStat{AvgTaskTime: 50 * time.Millisecond}) {
		t.Fatal("slow worker accepted")
	}
}

func TestWaitTimesRecorded(t *testing.T) {
	ac, _ := setup(t, 2, 2, nil)
	for round := 0; round < 2; round++ {
		sel, err := ac.ASYNCbarrier(BSP(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ac.ASYNCreduce(sel, countKernel); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := ac.ASYNCcollect(); err != nil {
				t.Fatal(err)
			}
		}
	}
	wt := ac.Coordinator().WaitTimes()
	if len(wt) != 2 {
		t.Fatalf("wait times for %d workers, want 2", len(wt))
	}
}

func TestASYNCbroadcastHistory(t *testing.T) {
	ac, _ := setup(t, 1, 1, nil)
	b1 := ac.ASYNCbroadcast("w", la.Vec{1, 0})
	b2 := ac.ASYNCbroadcast("w", la.Vec{2, 0})
	if b1.Version == b2.Version {
		t.Fatal("versions collide")
	}
	sel, _ := ac.ASYNCbarrier(ASP(), nil)
	kern := func(env *cluster.Env, parts []int, seed int64) (any, int, error) {
		// an earlier task used b1 for sample 7
		if _, err := b1.Value(env); err != nil {
			return nil, 0, err
		}
		b1.History(env).Record(7)
		// current value resolves to b2's payload
		cur, err := b2.Value(env)
		if err != nil {
			return nil, 0, err
		}
		// the id's history is one table whichever handle reads it: sample 7
		// still resolves to b1's payload, from the cache
		h := b2.History(env)
		hist, ok, err := h.TryValueAt(env, 7)
		if err != nil || !ok {
			return nil, 0, errTest("recorded version not readable")
		}
		// record and re-read: must now resolve to b2
		h.Record(7)
		if ver, _ := b2.RecordedVersion(env, 7); ver != b2.Version {
			return nil, 0, errTest("recorded version not used")
		}
		if now, ok, err := h.TryValueAt(env, 7); err != nil || !ok || now.(la.Vec)[0] != 2 {
			return nil, 0, errTest("re-recorded sample does not read the new version")
		}
		return cur.(la.Vec)[0] + hist.(la.Vec)[0], 1, nil
	}
	if _, err := ac.ASYNCreduce(sel, kern); err != nil {
		t.Fatal(err)
	}
	p, err := ac.ASYNCcollect()
	if err != nil {
		t.Fatal(err)
	}
	if p.(float64) != 3 { // 2 (current) + 1 (historical)
		t.Fatalf("payload %v, want 3", p)
	}
	if got := ac.RDD().Cluster().FetchCount(); got != 2 {
		t.Fatalf("%d fetches, want one per version", got)
	}
}

// A sample nobody recorded has no historical value and no default: the
// caller is told so (SAGA takes its historical gradient as zero) and nothing
// is fetched.
func TestASYNCbroadcastValueAtNoDefault(t *testing.T) {
	ac, _ := setup(t, 1, 1, nil)
	b := ac.ASYNCbroadcast("x", 1)
	sel, _ := ac.ASYNCbarrier(ASP(), nil)
	kern := func(env *cluster.Env, parts []int, seed int64) (any, int, error) {
		if v, ok, err := b.History(env).TryValueAt(env, 3); v != nil || ok || err != nil {
			return nil, 0, errTest("unrecorded sample resolved to a value")
		}
		if _, ok := b.RecordedVersion(env, 3); ok {
			return nil, 0, errTest("unrecorded sample has a version")
		}
		return true, 1, nil
	}
	if _, err := ac.ASYNCreduce(sel, kern); err != nil {
		t.Fatal(err)
	}
	if p, err := ac.ASYNCcollect(); err != nil || p != true {
		t.Fatalf("collect %v %v", p, err)
	}
	if got := ac.RDD().Cluster().FetchCount(); got != 0 {
		t.Fatalf("%d fetches for a sample with no history", got)
	}
}

type errTest string

func (e errTest) Error() string { return string(e) }

// TestHistoryRetainsWhatItReferences walks Algorithm 4's access pattern on a
// bare worker Env: after every task the cache holds exactly the versions
// some sample still records plus the newest, each fetched once; re-recording
// a sample at its own version changes nothing; StoreClear lets go of all.
func TestHistoryRetainsWhatItReferences(t *testing.T) {
	fetches := map[int64]int{}
	env := cluster.NewEnv(0, 1, func(id string, ver int64) (any, error) {
		fetches[ver]++
		return la.Vec{float64(ver)}, nil
	})
	rng := rand.New(rand.NewSource(3))
	recorded := map[int]int64{}
	for ver := int64(1); ver <= 200; ver++ {
		b := DynBroadcast{ID: "w", Version: ver}
		if v, err := b.Value(env); err != nil || v.(la.Vec)[0] != float64(ver) {
			t.Fatalf("version %d: %v %v", ver, v, err)
		}
		hist := b.History(env)
		for k := 0; k < 3; k++ {
			idx := rng.Intn(40)
			hv, ok, err := hist.TryValueAt(env, idx)
			if err != nil || ok != (recorded[idx] != 0) || (ok && hv.(la.Vec)[0] != float64(recorded[idx])) {
				t.Fatalf("version %d sample %d: history read %v %v %v, recorded %d", ver, idx, hv, ok, err, recorded[idx])
			}
			hist.Record(idx)
			hist.Record(idx) // same version again: no double count
			recorded[idx] = ver
		}
		want := map[int64]bool{ver: true}
		for _, v := range recorded {
			want[v] = true
		}
		if st := env.Cache().Stats(); st.Versions != len(want) || st.Retained != len(want) {
			t.Fatalf("after version %d: cache holds %d versions under %d references, history reads %d", ver, st.Versions, st.Retained, len(want))
		}
	}
	for ver, n := range fetches {
		if n != 1 {
			t.Fatalf("version %d crossed the wire %d times", ver, n)
		}
	}
	env.StoreClear()
	if st := env.Cache().Stats(); st.Versions != 1 || st.Retained != 0 {
		t.Fatalf("after StoreClear: %+v, want the newest version and no references", st)
	}
	if _, ok := (DynBroadcast{ID: "w"}).RecordedVersion(env, 0); ok {
		t.Fatal("history survived StoreClear")
	}
}

// TestTaskFailureRule pins the rule of ErrTaskFailed: failures with no
// success in between end the run once every worker has been re-dispatched
// maxTaskRetries times over; a success starts the count again; the error
// carries the worker's message, sticks, and ResetRun clears it.
func TestTaskFailureRule(t *testing.T) {
	const workers = 2
	ac, _ := setup(t, workers, 4, nil)
	failing := func(*cluster.Env, []int, int64) (any, int, error) {
		return nil, 0, errTest("boom from the kernel")
	}
	// round dispatches k to every worker and collects until nothing is in
	// flight, returning the last collect error
	round := func(k Kernel) error {
		t.Helper()
		sel, err := ac.ASYNCbarrier(BSP(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := ac.ASYNCreduce(sel, k); err != nil || n != workers {
			t.Fatalf("dispatched %d, err %v", n, err)
		}
		for {
			if _, err := ac.ASYNCcollectAll(); err != nil {
				return err
			}
		}
	}
	for i := 0; i < 2; i++ {
		// maxTaskRetries full rounds of failures stay below the bound …
		for r := 0; r < maxTaskRetries; r++ {
			if err := round(failing); errors.Is(err, ErrTaskFailed) {
				t.Fatalf("pass %d, round %d: run ended after %d failures: %v", i, r, (r+1)*workers, err)
			}
		}
		// … and one success starts the count over
		if err := round(countKernel); errors.Is(err, ErrTaskFailed) {
			t.Fatalf("a successful round reported %v", err)
		}
	}
	var err error
	for r := 0; r <= maxTaskRetries && !errors.Is(err, ErrTaskFailed); r++ {
		err = round(failing)
	}
	if !errors.Is(err, ErrTaskFailed) || !strings.Contains(err.Error(), "boom from the kernel") {
		t.Fatalf("after %d straight failures: err = %v, want ErrTaskFailed with the worker's message", (maxTaskRetries+1)*workers, err)
	}
	if _, again := ac.ASYNCcollectAll(); !errors.Is(again, ErrTaskFailed) {
		t.Fatalf("the failure did not stick: next collect = %v", again)
	}
	if err := ac.ResetRun(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := round(countKernel); errors.Is(err, ErrTaskFailed) {
		t.Fatalf("ResetRun kept the previous run's failure: %v", err)
	}
}

// TestStalenessHistogram: the coordinator aggregates staleness counts.
func TestStalenessHistogram(t *testing.T) {
	ac, _ := setup(t, 2, 2, nil)
	for round := 0; round < 3; round++ {
		sel, err := ac.ASYNCbarrier(BSP(), nil)
		if err != nil {
			t.Fatal(err)
		}
		n, err := ac.ASYNCreduce(sel, countKernel)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := ac.ASYNCcollect(); err != nil {
				t.Fatal(err)
			}
		}
		ac.AdvanceClock()
	}
	hist := ac.Coordinator().StalenessHistogram()
	var total int64
	for stale, count := range hist {
		if stale < 0 || count <= 0 {
			t.Fatalf("bad histogram entry %d:%d", stale, count)
		}
		total += count
	}
	if total != 6 { // 3 rounds × 2 workers
		t.Fatalf("histogram total %d, want 6", total)
	}
}
