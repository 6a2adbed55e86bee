package cluster_test

import (
	"context"
	"fmt"
	"math"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/la"
	"repro/internal/opt"
	"repro/internal/rdd"
	"repro/internal/straggler"
)

// wiredEngine is a driver over two loopback-TCP workers holding a sparse
// dataset wide enough that a few sampled rows change a small share of the
// model, so a fetch of a newer version goes as a patch.
type wiredEngine struct {
	c    *cluster.Cluster
	rctx *rdd.Context
	ac   *core.Context
	pts  *rdd.RDD[rdd.Point]
	d    *dataset.Dataset
}

func newWiredEngine(t *testing.T) *wiredEngine {
	t.Helper()
	const workers = 2
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan *cluster.Cluster, 1)
	go func() {
		c, err := cluster.ServeTCP(ln, workers)
		if err != nil {
			t.Error(err)
		}
		served <- c
	}()
	for id := 0; id < workers; id++ {
		go func() { _ = cluster.DialWorkerTCP(ln.Addr().String(), id, straggler.None{}, int64(31+id)) }()
	}
	var c *cluster.Cluster
	select {
	case c = <-served:
	case <-time.After(10 * time.Second):
		t.Fatal("TCP cluster assembly timed out")
	}
	if c == nil {
		t.FailNow()
	}
	t.Cleanup(func() { c.Shutdown(); _ = ln.Close() })
	d, err := dataset.Generate(dataset.SynthConfig{Name: "changelog", Rows: 400, Cols: 4000, NNZPerRow: 8, Noise: 0.1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rctx := rdd.NewContext(c)
	pts, err := rctx.Distribute(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	ac := core.New(rctx)
	t.Cleanup(ac.Close)
	return &wiredEngine{c: c, rctx: rctx, ac: ac, pts: pts, d: d}
}

func (e *wiredEngine) solve(t *testing.T, name string, cfg opt.SolveConfig) {
	t.Helper()
	s, err := opt.LookupSolver(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(context.Background(), opt.SolveRequest{AC: e.ac, Points: e.pts, Data: e.d, Config: cfg}); err != nil {
		t.Fatal(err)
	}
}

func sparseParams() opt.Params {
	return opt.Params{Step: opt.InvSqrt{A: 0.05}, SampleFrac: 0.02, Updates: 200, SnapshotEvery: 100}
}

// logFault checks one fetch the driver answered from its change log against
// diffVec, the oracle: the logged coordinates must include every one whose
// bits differ between the two stored versions, with the newer version's
// values, and the patch served must rebuild the newer version bit for bit.
// It reports whether a patch was served, and what is wrong if anything is.
func logFault(ans cluster.FetchAnswer) (served bool, fault string) {
	next := ans.Value.(la.Vec)
	patch := cluster.PatchAt(next, ans.Changed)
	if patch == nil {
		return false, "" // goes dense
	}
	defer la.PutDelta(patch)
	base, ok := ans.Base.(la.Vec)
	if !ok {
		return true, "" // the base is trimmed: nothing to diff against
	}
	oracle := cluster.DiffVec(base, next)
	if oracle == nil {
		return true, "the log patch is shorter than dense, the diff is not"
	}
	defer la.PutDelta(oracle)
	for k, j := range oracle.Idx {
		at, ok := slices.BinarySearch(patch.Idx, j)
		if !ok || math.Float64bits(patch.Val[at]) != math.Float64bits(oracle.Val[k]) {
			return true, fmt.Sprintf("coordinate %d changed, but the log patch does not carry its value", j)
		}
	}
	rebuilt := base.Clone()
	for k, j := range patch.Idx {
		rebuilt[j] = patch.Val[k]
	}
	for j := range rebuilt {
		if math.Float64bits(rebuilt[j]) != math.Float64bits(next[j]) {
			return true, fmt.Sprintf("the log patch rebuilds coordinate %d wrong", j)
		}
	}
	return true, ""
}

// TestChangeLogCoversDiff runs every registry solver over loopback TCP and
// checks every fetch the driver answers from its change log (logFault).
// asgd runs plain and elastic-net: the plain run must serve patches from
// its log; the elastic-net run settles every coordinate, so the log must
// decline all of its fetches.
func TestChangeLogCoversDiff(t *testing.T) {
	arms := map[string]opt.SolveConfig{}
	for _, name := range opt.SolverNames() {
		if name != "mllib-sgd" { // plain RDD stages, no model broadcast
			arms[name] = opt.SolveConfig{Params: sparseParams()}
		}
	}
	elastic := opt.SolveConfig{Params: sparseParams(), Objective: opt.ObjectiveSpec{Loss: "least-squares", L2: 0.01, L1: 0.001}}
	arms["asgd/elastic-net"] = elastic
	for arm, cfg := range arms {
		t.Run(arm, func(t *testing.T) {
			e := newWiredEngine(t)
			e.rctx.Broadcast("install", nil) // installs the driver store's handler
			store := e.c.SetFetchHandler(nil)
			var mu sync.Mutex
			logged, served := 0, 0
			e.c.SetFetchHandler(func(id string, ver, have int64) (cluster.FetchAnswer, error) {
				ans, err := store(id, ver, have)
				if err != nil || !ans.Logged {
					return ans, err
				}
				ok, fault := logFault(ans)
				mu.Lock()
				defer mu.Unlock()
				logged++
				if ok {
					served++
				}
				if fault != "" {
					t.Errorf("%s@%d from %d: %s", id, ver, have, fault)
				}
				return ans, nil
			})
			name, _, _ := strings.Cut(arm, "/")
			e.solve(t, name, cfg)
			mu.Lock()
			defer mu.Unlock()
			switch arm {
			case "asgd", "asgd-remote":
				if served == 0 {
					t.Fatalf("an unpenalised sparse asgd run served no patch from its log (%d logged answers)", logged)
				}
			case "asgd/elastic-net":
				if logged != 0 {
					t.Fatalf("%d fetches answered from the log of a run that changes every coordinate", logged)
				}
			}
		})
	}
}

// TestSparseASGDFetchesNeverDiff: on an unpenalised sparse asgd run over
// TCP, a worker's first fetch goes dense and every later one is answered
// from the driver's change log — as a patch, or dense once the worker falls
// so far behind that its base is trimmed. None needs the O(model) diff, so
// async_broadcast_fetches_total{reply="diff"} stays where it was.
func TestSparseASGDFetchesNeverDiff(t *testing.T) {
	e := newWiredEngine(t)
	patch0, diff0, dense0 := cluster.FetchReplies()
	e.solve(t, "asgd", opt.SolveConfig{Params: sparseParams()})
	patch, diff, dense := cluster.FetchReplies()
	if diff != diff0 {
		t.Fatalf("%d fetches fell back to the diff (patch +%d, dense +%d)", diff-diff0, patch-patch0, dense-dense0)
	}
	if patch == patch0 || dense-dense0 < 2 {
		t.Fatalf("patch +%d, dense +%d: want patches after one dense fetch per worker", patch-patch0, dense-dense0)
	}
}
