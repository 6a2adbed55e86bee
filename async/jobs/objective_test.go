package jobs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/async"
	"repro/async/jobs"
	"repro/internal/dataset"
	"repro/internal/la"
	"repro/internal/opt"
)

// gateObjective backs the normalization-equivalence checks: jobs submit and
// park without running real optimization.
var gateObjective = newGate("gate-objective")

func init() {
	if err := async.Register(gateObjective); err != nil {
		panic(err)
	}
}

// TestObjectiveAliasNormalization: the deprecated flat "loss" field and the
// structured objective normalize to the same merged objective, and
// loss-name aliases do not conflict with their canonical spelling.
func TestObjectiveAliasNormalization(t *testing.T) {
	s := newScheduler(t, jobs.Config{Engines: 1})
	ds := jobs.DatasetSpec{Name: "rcv1-like"}

	flat, err := s.Submit(jobs.Spec{Algorithm: gateObjective.name, Dataset: ds, Loss: "logistic"})
	if err != nil {
		t.Fatal(err)
	}
	structured, err := s.Submit(jobs.Spec{
		Algorithm: gateObjective.name, Dataset: ds,
		Objective: async.Objective{Loss: "logistic"},
	})
	if err != nil {
		t.Fatal(err)
	}
	aliased, err := s.Submit(jobs.Spec{
		Algorithm: gateObjective.name, Dataset: ds,
		Loss:      "ls", // canonical alias of the structured spelling: no conflict
		Objective: async.Objective{Loss: "least-squares", L2: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}

	jf, _ := s.Status(flat)
	js, _ := s.Status(structured)
	if jf.Spec.Objective != js.Spec.Objective {
		t.Fatalf("alias and structured submissions normalized differently: %+v vs %+v",
			jf.Spec.Objective, js.Spec.Objective)
	}
	if jf.Spec.Objective.Key() != js.Spec.Objective.Key() {
		t.Fatalf("objective keys differ: %q vs %q", jf.Spec.Objective.Key(), js.Spec.Objective.Key())
	}
	ja, _ := s.Status(aliased)
	if ja.Spec.Objective.L2 != 0.01 {
		t.Fatalf("aliased submission lost its penalty: %+v", ja.Spec.Objective)
	}

	for _, id := range []jobs.ID{flat, structured, aliased} {
		s.Cancel(id)
	}
}

// TestObjectiveSubmitRejections pins the submission-time gate: objectives a
// solver cannot faithfully optimize are rejected with a pointed error
// instead of silently dropping terms.
func TestObjectiveSubmitRejections(t *testing.T) {
	s := newScheduler(t, jobs.Config{Engines: 1})
	ds := jobs.DatasetSpec{Name: "rcv1-like"}
	cases := []struct {
		name string
		spec jobs.Spec
		want string
	}{
		{"conflicting loss names",
			jobs.Spec{Algorithm: "asgd", Dataset: ds, Loss: "logistic",
				Objective: async.Objective{Loss: "least-squares"}},
			"conflicts"},
		{"l1 on saga",
			jobs.Spec{Algorithm: "saga", Dataset: ds,
				Objective: async.Objective{L2: 0.01, L1: 0.001}},
			"no proximal step"},
		{"l1 on asaga-remote", // judged as asaga, the solver the alias runs
			jobs.Spec{Algorithm: "asaga-remote", Dataset: ds,
				Objective: async.Objective{L1: 0.001}},
			"no proximal step"},
		{"l1 on svrg",
			jobs.Spec{Algorithm: "svrg", Dataset: ds,
				Objective: async.Objective{L1: 0.001}},
			"no proximal step"},
		{"penalty on admm",
			jobs.Spec{Algorithm: "admm", Dataset: ds,
				Objective: async.Objective{L2: 0.01}},
			"ignores penalty terms"},
		{"auto_fstar objective mismatch", // stopped by the least-squares gate, auto_fstar or not
			jobs.Spec{Algorithm: "admm", Dataset: ds, AutoFStar: true,
				Objective: async.Objective{Loss: "logistic"}},
			"plain least squares only"},
		{"unknown loss",
			jobs.Spec{Algorithm: "asgd", Dataset: ds,
				Objective: async.Objective{Loss: "hinge"}},
			"unknown objective loss"},
		{"negative l1",
			jobs.Spec{Algorithm: "asgd", Dataset: ds,
				Objective: async.Objective{L1: -0.5}},
			"l1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := s.Submit(tc.spec)
			if err == nil {
				t.Fatalf("submission accepted: %+v", tc.spec)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestFacadeRejectsWhatSubmitRejects pins that the two entry points apply
// one gate: over every built-in solver × objective × mode, Scheduler.Submit
// refuses exactly what Engine.Solve refuses, on the same ground. (admm once
// solved plain least squares for an l2 or logistic objective handed to the
// facade, which only submission rejected.) A retired name, bcd, is refused
// by both as an unknown solver.
func TestFacadeRejectsWhatSubmitRejects(t *testing.T) {
	s := newScheduler(t, jobs.Config{Engines: 1})
	eng, err := async.New(async.WithWorkers(2), async.WithPartitions(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	d, err := dataset.Generate(dataset.RCV1Like(dataset.ScaleTiny, 1))
	if err != nil {
		t.Fatal(err)
	}
	gates := []string{"unknown solver", "no proximal step", "ignores penalty terms", "no selection modes", "unknown mode"}
	gateOf := func(err error) string {
		for _, g := range gates {
			if strings.Contains(err.Error(), g) {
				return g
			}
		}
		return ""
	}
	for _, solver := range append(opt.SolverNames(), "bcd") {
		for name, obj := range map[string]async.Objective{
			"plain": {}, "l2": {L2: 0.1}, "l1": {L1: 0.01}, "logistic": {Loss: "logistic"},
		} {
			for _, mode := range []string{"", "greedy", "bogus"} {
				t.Run(solver+"/"+name+"/mode="+mode, func(t *testing.T) {
					id, subErr := s.Submit(jobs.Spec{
						Algorithm: solver, Dataset: jobs.DatasetSpec{Name: "rcv1-like"},
						Objective: obj, Mode: mode, Updates: 2,
					})
					if subErr == nil {
						s.Cancel(id)
					}
					opts := async.SolveOptions{
						Params:    opt.Params{Step: opt.Constant{A: 0.01}, SampleFrac: 0.3, Updates: 2},
						Objective: obj,
					}
					opts.CD.Mode = mode
					_, solveErr := eng.Solve(context.Background(), solver, d, opts)
					if (subErr == nil) != (solveErr == nil) {
						t.Fatalf("Submit: %v\nSolve:  %v", subErr, solveErr)
					}
					if subErr == nil {
						return
					}
					if g := gateOf(subErr); g == "" || g != gateOf(solveErr) {
						t.Fatalf("refused on different grounds:\nSubmit: %v\nSolve:  %v", subErr, solveErr)
					}
				})
			}
		}
	}
}

// TestElasticNetJobsEndToEnd runs real elastic-net solves through the
// scheduler for every prox-capable solver family and asserts the ℓ1 term
// actually produced a sparse final model (exact zero coordinates). The
// asgd arm runs on a one-worker engine: ASP on one worker is sequential,
// hence deterministic, and which multi-worker interleaving a run happens
// to get is not what this test checks.
func TestElasticNetJobsEndToEnd(t *testing.T) {
	if _, err := async.Lookup("cd"); err != nil {
		t.Fatalf("cd not registered: %v", err)
	}
	if _, err := async.Lookup("gcg"); err != nil {
		t.Fatalf("gcg not registered: %v", err)
	}
	s := newScheduler(t, jobs.Config{Engines: 1})
	sequential := newScheduler(t, jobs.Config{
		Engines:       1,
		EngineOptions: []async.Option{async.WithWorkers(1), async.WithPartitions(2)},
	})
	for _, algo := range []string{"cd", "gcg", "asgd"} {
		t.Run(algo, func(t *testing.T) {
			s := s
			if algo == "asgd" {
				s = sequential
			}
			id, err := s.Submit(jobs.Spec{
				Algorithm: algo,
				Dataset:   jobs.DatasetSpec{Name: "rcv1-like"},
				Step:      jobs.StepSpec{Kind: "const", A: 0.02},
				Objective: async.Objective{Loss: "least-squares", L2: 0.01, L1: 0.01},
				Updates:   60, SnapshotEvery: 20,
			})
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, s, id, jobs.StateDone)
			res, err := s.Result(id)
			if err != nil {
				t.Fatal(err)
			}
			zeros, nonzeros := 0, 0
			for _, x := range res.W {
				if x == 0 {
					zeros++
				} else {
					nonzeros++
				}
			}
			if zeros == 0 {
				t.Fatalf("%s: ℓ1 objective produced no exact-zero coordinates", algo)
			}
			if nonzeros == 0 {
				t.Fatalf("%s: solve collapsed to the all-zero model", algo)
			}
		})
	}
}

// TestAliasJobRunsCanonicalSolver: asgd-remote is a deprecated spelling of
// asgd, so a job under that name is validated as asgd — penalties accepted —
// and solves the submitted objective: on a one-worker (sequential, hence deterministic) engine it
// lands on the same bits as the asgd job, and not on the unpenalized model.
func TestAliasJobRunsCanonicalSolver(t *testing.T) {
	s := newScheduler(t, jobs.Config{
		Engines:       1,
		EngineOptions: []async.Option{async.WithWorkers(1), async.WithPartitions(2)},
	})
	solve := func(algo string, obj async.Objective) []float64 {
		t.Helper()
		id, err := s.Submit(jobs.Spec{
			Algorithm: algo,
			Dataset:   jobs.DatasetSpec{Name: "rcv1-like"},
			Step:      jobs.StepSpec{Kind: "const", A: 0.02},
			Objective: obj,
			Updates:   60, SnapshotEvery: 20,
		})
		if err != nil {
			t.Fatalf("%s %+v: %v", algo, obj, err)
		}
		waitState(t, s, id, jobs.StateDone)
		if j, _ := s.Status(id); j.Spec.Algorithm != algo {
			t.Fatalf("submitted spelling %q rewritten to %q", algo, j.Spec.Algorithm)
		}
		res, err := s.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		return res.W
	}
	elastic := async.Objective{Loss: "least-squares", L2: 0.01, L1: 0.01}
	canon := solve("asgd", elastic)
	alias := solve("asgd-remote", elastic)
	plain := solve("asgd-remote", async.Objective{})
	if !la.Equal(canon, alias, 0) {
		t.Fatal("asgd-remote and asgd solved the same spec to different models")
	}
	if la.Equal(alias, plain, 0) {
		t.Fatal("asgd-remote ignored the submitted penalties")
	}
}

// TestHTTPElasticNetSubmit covers the wire path: a structured composite
// objective submitted over POST /v1/jobs round-trips through JSON, runs a
// cd solve, and an invalid objective is a 400, not a queued failure.
func TestHTTPElasticNetSubmit(t *testing.T) {
	s := newScheduler(t, jobs.Config{Engines: 1})
	srv := httptest.NewServer(jobs.NewHandler(s))
	defer srv.Close()

	id := postJob(t, srv.URL, jobs.Spec{
		Algorithm: "cd",
		Dataset:   jobs.DatasetSpec{Name: "rcv1-like"},
		Objective: async.Objective{Loss: "least-squares", L2: 0.02, L1: 0.005},
		Updates:   30, SnapshotEvery: 10,
	})
	job := waitState(t, s, id, jobs.StateDone)
	if job.Spec.Objective.L1 != 0.005 {
		t.Fatalf("objective lost over the wire: %+v", job.Spec.Objective)
	}

	bad, err := json.Marshal(jobs.Spec{
		Algorithm: "saga",
		Dataset:   jobs.DatasetSpec{Name: "rcv1-like"},
		Objective: async.Objective{L1: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ℓ1-on-saga submission: status %d, want 400", resp.StatusCode)
	}
}

// FuzzObjectiveSpecDecode fuzzes the wire decode of the structured
// objective: any JSON that unmarshals and validates must also resolve to a
// working loss with a stable canonical key.
func FuzzObjectiveSpecDecode(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"loss":"logistic","l2":0.01,"l1":0.001}`,
		`{"loss":"ls"}`,
		`{"loss":"least-squares","l2":1}`,
		`{"loss":"hinge"}`,
		`{"l1":-1}`,
		`{"l2":1e308,"l1":1e308}`,
		`{"loss":"LOGISTIC","l1":0.5}`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var o async.Objective
		if err := json.Unmarshal(data, &o); err != nil {
			t.Skip()
		}
		if err := o.Validate(); err != nil {
			return // invalid specs must only error, never panic
		}
		l, err := o.Resolve()
		if err != nil {
			t.Fatalf("validated objective %+v failed to resolve: %v", o, err)
		}
		if l.Name() == "" {
			t.Fatalf("objective %+v resolved to a nameless loss", o)
		}
		if k := o.Key(); k == "" || k != o.Key() {
			t.Fatalf("objective %+v has unstable cache key", o)
		}
	})
}
