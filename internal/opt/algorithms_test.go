package opt

import (
	"context"
	"errors"
	"math"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/la"
	"repro/internal/rdd"
	"repro/internal/straggler"
)

// transport is the dimension every sgd/asgd/saga/asaga pin runs across: one
// solver code path must behave the same whether its tasks reach the workers
// over in-process channels or over loopback TCP sockets.
type transport string

const (
	local    transport = "local"
	loopback transport = "tcp"
)

// eachTransport runs f as one subtest per transport.
func eachTransport(t *testing.T, f func(t *testing.T, tr transport)) {
	for _, tr := range []transport{local, loopback} {
		t.Run(string(tr), func(t *testing.T) { f(t, tr) })
	}
}

// newClusterOn assembles a cluster of workers reached over tr: goroutines
// behind channel endpoints, or goroutines that dial a loopback listener and
// speak the framed wire protocol — the cmd/asyncd path, in one process.
// Worker seeds agree across transports so paired runs are comparable.
func newClusterOn(t *testing.T, tr transport, workers int, delay straggler.Model) *cluster.Cluster {
	t.Helper()
	const seed = 31
	if tr == local {
		c, err := cluster.NewLocal(cluster.Config{NumWorkers: workers, Delay: delay, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Shutdown)
		return c
	}
	if delay == nil {
		delay = straggler.None{}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	type served struct {
		c   *cluster.Cluster
		err error
	}
	ch := make(chan served, 1)
	go func() {
		c, err := cluster.ServeTCP(ln, workers)
		ch <- served{c, err}
	}()
	for i := 0; i < workers; i++ {
		go func(id int) {
			_ = cluster.DialWorkerTCP(ln.Addr().String(), id, delay, seed+int64(id))
		}(i)
	}
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatal(r.err)
		}
		t.Cleanup(func() {
			r.c.Shutdown()
			_ = ln.Close()
		})
		return r.c
	case <-time.After(10 * time.Second):
		t.Fatal("TCP cluster assembly timed out")
		return nil
	}
}

// rig is a ready-to-run optimization test fixture.
type rig struct {
	c      *cluster.Cluster
	ac     *core.Context
	rctx   *rdd.Context
	points *rdd.RDD[rdd.Point]
	d      *dataset.Dataset
	fstar  float64
	f0     float64 // objective at w = 0
}

// denseCfg is the small tall dataset the convergence pins run on.
func denseCfg() dataset.SynthConfig {
	return dataset.SynthConfig{Name: "opt-test", Rows: 160, Cols: 8, NNZPerRow: 5, Noise: 0.05, Seed: 17}
}

// newRigOn distributes cfg's dataset over a fresh cluster on tr. Wide
// (rows < cols) systems are near-interpolating: F* ≈ noise² ≈ 0 and the CG
// reference on the singular normal equations is unreliable, so their fstar
// stays 0 and convergence is asserted against that.
func newRigOn(t *testing.T, tr transport, workers, parts int, delay straggler.Model, cfg dataset.SynthConfig) *rig {
	t.Helper()
	c := newClusterOn(t, tr, workers, delay)
	d, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rctx := rdd.NewContext(c)
	points, err := rctx.Distribute(d, parts)
	if err != nil {
		t.Fatal(err)
	}
	ac := core.New(rctx)
	t.Cleanup(ac.Close)
	var fstar float64
	if cfg.Rows >= cfg.Cols {
		if _, fstar, err = ReferenceOptimum(d); err != nil {
			t.Fatal(err)
		}
	}
	return &rig{
		c: c, ac: ac, rctx: rctx, points: points, d: d, fstar: fstar,
		f0: Objective(d, LeastSquares{}, make([]float64, d.NumCols())),
	}
}

// newRig is the in-process dense fixture most tests use.
func newRig(t *testing.T, workers, parts int, delay straggler.Model) *rig {
	t.Helper()
	return newRigOn(t, local, workers, parts, delay, denseCfg())
}

// assertConverged checks the run reduced suboptimality by at least factor.
func (r *rig) assertConverged(t *testing.T, res *Result, factor float64) {
	t.Helper()
	final := Objective(r.d, LeastSquares{}, res.W) - r.fstar
	initial := r.f0 - r.fstar
	if final < 0 {
		t.Fatalf("final error %v below optimum — fstar wrong", final)
	}
	if final > initial/factor {
		t.Fatalf("did not converge: error %v → %v (want ≥%gx reduction)", initial, final, factor)
	}
	r.assertTrace(t, res)
}

// assertTrace checks trace structure without any convergence claim.
func (r *rig) assertTrace(t *testing.T, res *Result) {
	t.Helper()
	if len(res.Trace.Points) < 2 {
		t.Fatalf("trace has %d points", len(res.Trace.Points))
	}
	if res.Trace.Total <= 0 {
		t.Fatal("trace total duration missing")
	}
}

// reduction returns the run's suboptimality-reduction factor.
func (r *rig) reduction(res *Result) float64 {
	final := Objective(r.d, LeastSquares{}, res.W) - r.fstar
	return (r.f0 - r.fstar) / final
}

// medianOf returns the median of a small sample.
func medianOf(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[len(s)/2]
}

func TestSyncSGDConverges(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		r := newRigOn(t, tr, 4, 8, nil, denseCfg())
		res, err := SyncSGD(r.ac, r.d, Params{
			Step: InvSqrt{A: 0.08}, SampleFrac: 0.4, Updates: 80, SnapshotEvery: 20,
		}, r.fstar)
		if err != nil {
			t.Fatal(err)
		}
		r.assertConverged(t, res, 10)
		if res.Trace.Algorithm != "SGD" {
			t.Fatalf("algo %q", res.Trace.Algorithm)
		}
	})
}

func TestASGDConverges(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		r := newRigOn(t, tr, 4, 8, nil, denseCfg())
		res, err := ASGD(r.ac, r.d, Params{
			Step: Scaled{Base: InvSqrt{A: 0.08}, Factor: 4}, SampleFrac: 0.4,
			Updates: 800, SnapshotEvery: 200,
		}, r.fstar)
		if err != nil {
			t.Fatal(err)
		}
		r.assertConverged(t, res, 10)
		if res.Trace.Algorithm != "ASGD" {
			t.Fatalf("algo %q", res.Trace.Algorithm)
		}
		if len(res.Trace.AvgWait) == 0 {
			t.Fatal("no wait times recorded")
		}
	})
}

func TestASGDWithStalenessLR(t *testing.T) {
	r := newRig(t, 4, 8, nil)
	res, err := ASGD(r.ac, r.d, Params{
		Step: Scaled{Base: InvSqrt{A: 0.08}, Factor: 4}, SampleFrac: 0.4,
		Updates: 800, SnapshotEvery: 200, StalenessLR: true,
	}, r.fstar)
	if err != nil {
		t.Fatal(err)
	}
	r.assertConverged(t, res, 3)
}

func TestASGDWithSSPBarrier(t *testing.T) {
	r := newRig(t, 4, 8, nil)
	res, err := ASGD(r.ac, r.d, Params{
		Step: Scaled{Base: InvSqrt{A: 0.08}, Factor: 4}, SampleFrac: 0.4,
		Updates: 600, SnapshotEvery: 150, Barrier: core.SSP(64),
	}, r.fstar)
	if err != nil {
		t.Fatal(err)
	}
	r.assertConverged(t, res, 5)
}

func TestSAGAConverges(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		r := newRigOn(t, tr, 4, 8, nil, denseCfg())
		res, err := SAGA(r.ac, r.d, Params{
			Step: Constant{A: 0.05}, SampleFrac: 0.3, Updates: 100, SnapshotEvery: 25,
		}, r.fstar)
		if err != nil {
			t.Fatal(err)
		}
		r.assertConverged(t, res, 10)
	})
}

func TestASAGAConverges(t *testing.T) {
	// a single asynchronous run's final error is heavy-tailed in the
	// goroutine interleaving, so the convergence claim is asserted on the
	// median of independent runs rather than one draw. Over TCP this also
	// exercises the historical-gradient path — version cache, fetch-on-miss,
	// per-sample history shards — across real sockets.
	eachTransport(t, func(t *testing.T, tr transport) {
		factors := make([]float64, 0, 5)
		for i := 0; i < 5; i++ {
			r := newRigOn(t, tr, 4, 8, nil, denseCfg())
			res, err := ASAGA(r.ac, r.d, Params{
				Step: Constant{A: 0.05 / 4}, SampleFrac: 0.3, Updates: 400, SnapshotEvery: 100,
			}, r.fstar)
			if err != nil {
				t.Fatal(err)
			}
			r.assertTrace(t, res)
			factors = append(factors, r.reduction(res))
		}
		if m := medianOf(factors); m < 4 {
			t.Fatalf("ASAGA did not converge: median reduction %.2fx of %v, want >= 4x", m, factors)
		}
	})
}

// TestASGDHonoursInitW: a warm start reaches the workers' first model on
// every transport.
func TestASGDHonoursInitW(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		r := newRigOn(t, tr, 1, 2, nil, denseCfg())
		init := la.NewVec(r.d.NumCols())
		for j := range init {
			init[j] = float64(j + 1)
		}
		res, err := ASGD(r.ac, r.d, Params{
			Step: Constant{A: 1e-12}, SampleFrac: 0.5, Updates: 3, InitW: init,
		}, r.fstar)
		if err != nil {
			t.Fatal(err)
		}
		if !la.Equal(res.W, init, 1e-6) {
			t.Fatalf("model %v did not start from InitW %v", res.W, init)
		}
	})
}

// TestClosureSolverOverTCPFailsLoudly: a driver written against the closure
// form of ASYNCreduce hands the engine a kernel no wire can carry. On a TCP
// cluster the dispatch must say so up front — not mark workers down one
// failed send at a time.
func TestClosureSolverOverTCPFailsLoudly(t *testing.T) {
	r := newRigOn(t, loopback, 2, 4, nil, denseCfg())
	sel, err := r.ac.ASYNCbarrier(core.BSP(), nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := r.ac.ASYNCreduce(sel, GradKernel(LeastSquares{}, core.DynBroadcast{ID: "w", Version: 1}, 0.5))
	if n != 0 || err == nil || !strings.Contains(err.Error(), "closure kernel") {
		t.Fatalf("closure reduce over TCP: dispatched %d, err = %v, want one naming the closure task form", n, err)
	}
	if alive := r.c.AliveWorkers(); len(alive) != 2 {
		t.Fatalf("closure dispatch cost worker liveness: alive = %v", alive)
	}
	if st := r.ac.STAT(); st.Pending != 0 {
		t.Fatalf("refused dispatch left %d tasks pending", st.Pending)
	}
	// an op whose args have no payload codec is the same class of fault:
	// the dispatch aborts with the encode error, nothing stays reserved
	sel, err = r.ac.ASYNCbarrier(core.BSP(), nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err = r.ac.ASYNCreduceOp(sel, GradOpName, func(int, []int) any { return struct{ X int }{1} })
	if n != 0 || !errors.Is(err, cluster.ErrNotEncodable) {
		t.Fatalf("unencodable op args: dispatched %d, err = %v", n, err)
	}
	if st := r.ac.STAT(); st.Pending != 0 || len(r.c.AliveWorkers()) != 2 {
		t.Fatalf("unencodable op args left pending=%d alive=%v", st.Pending, r.c.AliveWorkers())
	}
	// the cluster is intact: an op-dispatching solver runs right after
	if _, err := ASGD(r.ac, r.d, Params{Step: Constant{A: 0.01}, SampleFrac: 0.5, Updates: 4}, r.fstar); err != nil {
		t.Fatalf("asgd after the refused dispatches: %v", err)
	}
}

func TestEpochVRConverges(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		r := newRigOn(t, tr, 4, 8, nil, denseCfg())
		res, err := EpochVR(r.ac, r.d,
			Params{Step: Constant{A: 0.02}, SampleFrac: 0.3, Updates: 1, SnapshotEvery: 40},
			VRConfig{Epochs: 4, UpdatesPerEpoch: 80}, r.fstar)
		if err != nil {
			t.Fatal(err)
		}
		r.assertConverged(t, res, 10)
	})
}

func TestMllibSGDConverges(t *testing.T) {
	r := newRig(t, 4, 8, nil)
	res, err := MllibSGD(context.Background(), r.rctx, r.points, r.d, Params{
		Step: InvSqrt{A: 0.08}, SampleFrac: 0.4, Updates: 80, SnapshotEvery: 20,
	}, r.fstar)
	if err != nil {
		t.Fatal(err)
	}
	r.assertConverged(t, res, 10)
}

// TestFig2Shape is the Figure 2 claim: the ASYNC-based synchronous SGD and
// the engine-only baseline reach comparable error.
func TestFig2Shape(t *testing.T) {
	r := newRig(t, 4, 8, nil)
	p := Params{Step: InvSqrt{A: 0.08}, SampleFrac: 0.4, Updates: 60, SnapshotEvery: 20}
	mllib, err := MllibSGD(context.Background(), r.rctx, r.points, r.d, p, r.fstar)
	if err != nil {
		t.Fatal(err)
	}
	async, err := SyncSGD(r.ac, r.d, p, r.fstar)
	if err != nil {
		t.Fatal(err)
	}
	em, ea := mllib.Trace.FinalError(), async.Trace.FinalError()
	if em <= 0 || ea <= 0 {
		t.Fatalf("degenerate errors %v %v", em, ea)
	}
	ratio := em / ea
	if ratio < 0.1 || ratio > 10 {
		t.Fatalf("sync-in-ASYNC and baseline diverge: %v vs %v", ea, em)
	}
}

func TestASGDUnderStraggler(t *testing.T) {
	// one worker at 1/3 speed: ASGD must still converge
	r := newRig(t, 4, 8, straggler.ControlledDelay{Worker: 0, Intensity: 2})
	res, err := ASGD(r.ac, r.d, Params{
		Step: Scaled{Base: InvSqrt{A: 0.08}, Factor: 4}, SampleFrac: 0.4,
		Updates: 600, SnapshotEvery: 150,
	}, r.fstar)
	if err != nil {
		t.Fatal(err)
	}
	r.assertConverged(t, res, 5)
}

func TestSAGAFullTableBroadcastShipsMoreBytes(t *testing.T) {
	r := newRig(t, 2, 4, nil)
	res, bytes, err := SAGAFullTableBroadcast(r.rctx, r.points, r.d, Params{
		Step: Constant{A: 0.05}, SampleFrac: 0.3, Updates: 40, SnapshotEvery: 10,
	}, r.fstar)
	if err != nil {
		t.Fatal(err)
	}
	r.assertConverged(t, res, 3)
	if bytes == 0 {
		t.Fatal("table broadcast reported zero bytes")
	}
	// the table grows with touched samples: later rounds dominate; total
	// must exceed the model-only volume (updates × workers × cols × 8)
	modelOnly := int64(40 * 2 * r.d.NumCols() * 8)
	if bytes <= modelOnly {
		t.Fatalf("table bytes %d not above model-only volume %d", bytes, modelOnly)
	}
}

func TestParamsValidation(t *testing.T) {
	r := newRig(t, 1, 1, nil)
	if _, err := SyncSGD(r.ac, r.d, Params{SampleFrac: 0.5, Updates: 1}, 0); err == nil {
		t.Fatal("missing step accepted")
	}
	if _, err := SyncSGD(r.ac, r.d, Params{Step: Constant{A: 1}, SampleFrac: 0, Updates: 1}, 0); err == nil {
		t.Fatal("zero frac accepted")
	}
	if _, err := SyncSGD(r.ac, r.d, Params{Step: Constant{A: 1}, SampleFrac: 0.5, Updates: 0}, 0); err == nil {
		t.Fatal("zero updates accepted")
	}
	// zero Epochs is "use the default" (VRConfig.defaults)
	if _, err := EpochVR(r.ac, r.d, Params{Step: Constant{A: 1}, SampleFrac: 0.5, Updates: 1},
		VRConfig{Epochs: -1}, 0); err == nil {
		t.Fatal("negative epochs accepted")
	}
}

func TestSagaStateApplyMath(t *testing.T) {
	st := newSagaState(2, 10)
	part := SagaPartial{Sum: []float64{2, 4}, HistSum: []float64{1, 1}}
	// alpha=1, batch=1: w = -( (2-1), (4-1) ) = (-1, -3); avgHist = (0.1, 0.3)
	if err := st.apply(1, part, 1); err != nil {
		t.Fatal(err)
	}
	approx := func(got, want float64) bool { return math.Abs(got-want) < 1e-12 }
	if !approx(st.w[0], -1) || !approx(st.w[1], -3) {
		t.Fatalf("w = %v", st.w)
	}
	if !approx(st.avgHist[0], 0.1) || !approx(st.avgHist[1], 0.3) {
		t.Fatalf("avgHist = %v", st.avgHist)
	}
	// second apply includes the avgHist correction term
	if err := st.apply(1, SagaPartial{Sum: []float64{0, 0}, HistSum: []float64{0, 0}}, 1); err != nil {
		t.Fatal(err)
	}
	if !approx(st.w[0], -1.1) || !approx(st.w[1], -3.3) {
		t.Fatalf("w after correction = %v", st.w)
	}
	if err := st.apply(1, part, 0); err == nil {
		t.Fatal("zero batch accepted")
	}
}
