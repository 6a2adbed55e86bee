package opt

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/la"
)

// TestASGDSurvivesWorkerDeath kills a worker mid-run: ASGD must keep
// converging on the survivors (the dead worker's in-flight gradient is
// simply lost, which asynchronous SGD tolerates by design).
func TestASGDSurvivesWorkerDeath(t *testing.T) {
	r := newRig(t, 4, 8, nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(5 * time.Millisecond)
		r.ac.RDD().Cluster().Kill(2)
	}()
	res, err := ASGD(r.ac, r.d, Params{
		Step: Scaled{Base: InvSqrt{A: 0.08}, Factor: 4}, SampleFrac: 0.4,
		Updates: 600, SnapshotEvery: 150,
	}, r.fstar)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	r.assertConverged(t, res, 3)
	// the dead worker must leave the STAT table's alive set once the
	// liveness sweeper (50ms period) observes the death
	deadline := time.Now().Add(3 * time.Second)
	for r.ac.STAT().AliveWorkers != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("alive workers = %d, want 3", r.ac.STAT().AliveWorkers)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSyncSGDSurvivesWorkerDeath: the BSP barrier compares available
// against *alive* workers, so synchronous rounds continue with the
// survivors after a crash.
func TestSyncSGDSurvivesWorkerDeath(t *testing.T) {
	r := newRig(t, 4, 8, nil)
	go func() {
		time.Sleep(5 * time.Millisecond)
		r.ac.RDD().Cluster().Kill(1)
	}()
	res, err := SyncSGD(r.ac, r.d, Params{
		Step: InvSqrt{A: 0.08}, SampleFrac: 0.4, Updates: 80, SnapshotEvery: 20,
	}, r.fstar)
	if err != nil {
		t.Fatal(err)
	}
	r.assertConverged(t, res, 3)
}

// TestASAGASurvivesWorkerDeath: ASAGA loses the dead worker's history shard
// (its partitions' recorded versions) but the algorithm continues and
// converges on the survivors. The worker dies at the run's snapshot of
// update 100, taken on the driver, not after a wall-clock delay or from a
// polling goroutine (which a busy machine can starve until the run is
// over), so the death lands a quarter of the way into the run on any
// machine.
func TestASAGASurvivesWorkerDeath(t *testing.T) {
	const killAt, updates = 100, 400
	r := newRig(t, 4, 8, nil)
	killedAt := int64(-1)
	res, err := ASAGA(r.ac, r.d, Params{
		Step: Constant{A: 0.05 / 4}, SampleFrac: 0.3, Updates: updates, SnapshotEvery: 100,
		OnProgress: func(p Progress) {
			if killedAt < 0 && p.Updates >= killAt {
				r.ac.RDD().Cluster().Kill(3)
				killedAt = p.Updates
			}
		},
	}, r.fstar)
	if err != nil {
		t.Fatal(err)
	}
	if killedAt < 0 || killedAt >= updates {
		t.Fatalf("worker 3 was not killed mid-run (killed at update %d of %d)", killedAt, updates)
	}
	r.assertConverged(t, res, 3)
}

// TestASGDAllWorkersDeadFails: when every worker dies the driver must
// surface an error rather than hang.
func TestASGDAllWorkersDeadFails(t *testing.T) {
	r := newRig(t, 2, 4, nil)
	r.ac.BarrierTimeout = 500 * time.Millisecond
	go func() {
		time.Sleep(3 * time.Millisecond)
		r.ac.RDD().Cluster().Kill(0)
		r.ac.RDD().Cluster().Kill(1)
	}()
	_, err := ASGD(r.ac, r.d, Params{
		Step: Constant{A: 0.01}, SampleFrac: 0.4, Updates: 100000, SnapshotEvery: 1000,
	}, r.fstar)
	if err == nil {
		t.Fatal("run with zero workers succeeded")
	}
	if _, ok := err.(interface{ Error() string }); !ok {
		t.Fatal("non-error error")
	}
	_ = core.ErrNoWorkers
}

// failOpName is a registered op that errors on every task — the shape of a
// decode error, an op panic or a refused patch that no retry cures.
const failOpName = "opt.test.fail"

func init() {
	cluster.RegisterOp(failOpName, func(env *cluster.Env, _ *cluster.Task) (any, error) {
		return nil, errors.New("boom: this op fails on every worker")
	})
}

// nopRounds is the least RoundUpdater: the failing runs never apply anything.
type nopRounds struct{ vecUpdater }

func (*nopRounds) FlushRound(float64) (bool, error) { return false, nil }

// TestFailedTaskFailsRun: a run whose every task errors on the worker ends
// with an error carrying the worker's text, on both transports and in every
// loop shape — streaming, rounds, and svrg's full pass outside the main loop
// (which used to report an all-failed pass as "empty full pass"). At the
// parent commit the coordinator dropped failed results and the loop
// re-dispatched forever.
func TestFailedTaskFailsRun(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		for name, spec := range map[string]loopSpec{
			"stream": {},
			"round":  {Round: true, Barrier: core.BSP()},
			"svrg":   {EpochLen: 10},
		} {
			t.Run(name, func(t *testing.T) {
				r := newRigOn(t, tr, 2, 4, nil, denseCfg())
				p := asgdParams()
				if err := p.defaults(); err != nil {
					t.Fatal(err)
				}
				fail := func(_ core.DynBroadcast, sel *core.Selection) (int, error) {
					return r.ac.ASYNCreduceOp(sel, failOpName, func(_ int, parts []int) any { return parts })
				}
				var u Updater = &nopRounds{vecUpdater{w: la.NewVec(r.d.NumCols())}}
				spec.Algo, spec.Name, spec.Key = "FAIL", "fail", "fail.w"
				spec.P, spec.Loss, spec.Target = &p, LeastSquares{}, int64(p.Updates)
				spec.Dispatch = fail
				if name == "svrg" {
					vr := &vrUpdater{ac: r.ac, fullPass: fail, epochLen: spec.EpochLen,
						w: la.NewVec(r.d.NumCols()), mu: la.NewVec(r.d.NumCols())}
					u, spec.EpochBegin = vr, vr.begin
				}
				done := make(chan error, 1)
				go func() {
					_, err := runLoop(r.ac, r.d, u, &spec)
					done <- err
				}()
				select {
				case err := <-done:
					if !errors.Is(err, core.ErrTaskFailed) || !strings.Contains(err.Error(), "boom: this op fails") {
						t.Fatalf("err = %v, want core.ErrTaskFailed carrying the worker's message", err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("a run whose every task fails never returned")
				}
			})
		}
	})
}

// TestRegistrySolversRunOverTCP walks the registry: every solver but the
// AC-free baseline finishes a short run on a loopback-TCP cluster, so a
// solver that hands the engine a closure, or a payload without a codec,
// fails here and not in production.
func TestRegistrySolversRunOverTCP(t *testing.T) {
	for _, name := range SolverNames() {
		if name == "mllib-sgd" {
			continue // plain RDD stages, no AC: not a task-form question
		}
		t.Run(name, func(t *testing.T) {
			r := newRigOn(t, loopback, 2, 4, nil, denseCfg())
			s, err := LookupSolver(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Solve(context.Background(), SolveRequest{
				AC: r.ac, Points: r.points, Data: r.d,
				Config: SolveConfig{Params: asgdParams(), FStar: r.fstar},
			})
			if err != nil {
				t.Fatal(err)
			}
			r.assertTrace(t, res)
			if la.Norm2(res.W) == 0 {
				t.Fatal("the run never moved the model")
			}
		})
	}
}
