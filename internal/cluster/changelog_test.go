package cluster_test

import (
	"context"
	"fmt"
	"maps"
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

// published records the model of every version a run publishes
// (Params.OnPublish): the ground truth a fetch answer is checked against,
// copied outside the driver store.
type published struct {
	mu   sync.Mutex
	vers map[int64]la.Vec
}

func (p *published) record(ver int64, w la.Vec) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.vers[ver] = w.Clone()
}

func (p *published) model(ver int64) (la.Vec, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w, ok := p.vers[ver]
	return w, ok
}

// answerFault checks one fetch answer of a published model version against
// the model the run published, the oracle. A whole value must be that model
// bit for bit. A patch must list every coordinate whose bits differ between
// the models published as have and ver (diffVec), with ver's values, and
// must rebuild ver's model from have's bit for bit. It reports what is
// wrong, if anything.
func answerFault(pub *published, ver, have int64, ans cluster.FetchAnswer) string {
	next, ok := pub.model(ver)
	if !ok {
		if ans.Patch != nil {
			return "a patch answers a version the run never published"
		}
		return "" // not a model version
	}
	if ans.Patch == nil {
		if w, _ := ans.Value.(la.Vec); !bitsEqual(w, next) {
			return "the value served is not the model published"
		}
		return ""
	}
	base, ok := pub.model(have)
	if !ok {
		return "a patch against a version the run never published"
	}
	oracle := cluster.DiffVec(base, next)
	if oracle == nil {
		return "the log patch is shorter than dense, the diff is not"
	}
	defer la.PutDelta(oracle)
	patch := ans.Patch
	for k, j := range oracle.Idx {
		at, ok := slices.BinarySearch(patch.Idx, j)
		if !ok || math.Float64bits(patch.Val[at]) != math.Float64bits(oracle.Val[k]) {
			return fmt.Sprintf("coordinate %d changed, but the log patch does not carry its value", j)
		}
	}
	rebuilt := base.Clone()
	for k, j := range patch.Idx {
		rebuilt[j] = patch.Val[k]
	}
	if !bitsEqual(rebuilt, next) {
		return "the log patch does not rebuild the model published"
	}
	return ""
}

func bitsEqual(a, b la.Vec) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestChangeLogCoversDiff runs every registry solver over loopback TCP,
// records each model version it publishes, and checks every fetch the
// driver answers against those models (answerFault): a change report that
// misses a coordinate leaves it stale in the driver's store. asgd runs
// plain and elastic-net: the plain run, like sgd's sparse rounds, must serve
// patches from its log; the elastic-net run settles every coordinate at
// each publish, so no fetch of it may be answered from the log — as a
// patch, or as a value served without the base a fetch outside the log
// carries (cluster.FetchAnswer).
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
			pub := &published{vers: map[int64]la.Vec{}}
			cfg.Params.OnPublish = pub.record
			var mu sync.Mutex
			served, logged := 0, 0
			ids := map[string]bool{}
			check := func(id string, ver, have int64) (cluster.FetchAnswer, error) {
				ans, err := store(id, ver, have)
				if err != nil {
					return ans, err
				}
				fault := answerFault(pub, ver, have, ans)
				fromLog := ans.Patch != nil
				if !fromLog && ans.Base == nil && 0 < have && have < ver {
					// have is stored still, so it was at the fetch: the
					// store declined the patch its log covered
					_, err := store(id, have, 0)
					fromLog = err == nil
				}
				mu.Lock()
				defer mu.Unlock()
				if _, ok := pub.model(ver); ok {
					ids[id] = true
				}
				if ans.Patch != nil {
					served++
				}
				if fromLog {
					logged++
				}
				if fault != "" {
					t.Errorf("%s@%d from %d: %s", id, ver, have, fault)
				}
				return ans, nil
			}
			e.c.SetFetchHandler(check)
			name, _, _ := strings.Cut(arm, "/")
			e.solve(t, name, cfg)
			// The versions still stored, read whole and patched from the
			// one before: a cd worker reads the model at cold start alone.
			vers := slices.Sorted(maps.Keys(pub.vers))
			for id := range ids {
				have := int64(0)
				for _, ver := range vers {
					if _, err := check(id, ver, 0); err != nil {
						continue // trimmed
					}
					if have > 0 {
						if ans, _ := check(id, ver, have); ans.Patch != nil {
							la.PutDelta(ans.Patch)
						}
					}
					have = ver
				}
			}
			mu.Lock()
			defer mu.Unlock()
			switch arm {
			case "asgd", "sgd", "cd":
				if served == 0 {
					t.Fatalf("an unpenalised sparse %s run served no patch from its log (%d logged answers)", arm, logged)
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
