package jobs_test

import (
	"context"
	"strings"
	"testing"

	"repro/async"
	"repro/async/jobs"
	"repro/internal/dataset"
	"repro/internal/opt"
)

// TestModeSubmitValidation pins the Spec.Mode gate: per-algorithm mode
// names are accepted (and lower-cased), unknown modes and modes on
// solvers without a selection knob are rejected at submission.
func TestModeSubmitValidation(t *testing.T) {
	s := newScheduler(t, jobs.Config{Engines: 1})
	ds := jobs.DatasetSpec{Name: "rcv1-like"}

	id, err := s.Submit(jobs.Spec{
		Algorithm: "cd", Dataset: ds, Mode: "Greedy",
		Updates: 5, SnapshotEvery: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if job, _ := s.Status(id); job.Spec.Mode != "greedy" {
		t.Fatalf("mode not normalized: %q", job.Spec.Mode)
	}
	s.Cancel(id)

	cases := []struct {
		name string
		spec jobs.Spec
		want string
	}{
		{"mode on asgd",
			jobs.Spec{Algorithm: "asgd", Dataset: ds, Mode: "greedy"},
			"no selection modes"},
		{"unknown cd mode",
			jobs.Spec{Algorithm: "cd", Dataset: ds, Mode: "steepest"},
			"unknown mode"},
		{"cd-only mode on gcg",
			jobs.Spec{Algorithm: "gcg", Dataset: ds, Mode: "greedy"},
			"no selection modes"},
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

// TestGreedyModeJobsEndToEnd runs greedy-selection cd jobs through the
// scheduler: the mode survives the wire format, the solve completes,
// and the ℓ1 term still produces exact zeros (greedy changes the visit
// order, not the prox math).
func TestGreedyModeJobsEndToEnd(t *testing.T) {
	s := newScheduler(t, jobs.Config{Engines: 1})
	t.Run("cd", func(t *testing.T) {
		id, err := s.Submit(jobs.Spec{
			Algorithm: "cd", Mode: "greedy",
			Dataset:   jobs.DatasetSpec{Name: "rcv1-like"},
			Objective: async.Objective{Loss: "least-squares", L2: 0.01, L1: 0.01},
			Updates:   60, SnapshotEvery: 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		job := waitState(t, s, id, jobs.StateDone)
		if job.Spec.Mode != "greedy" {
			t.Fatalf("mode lost in normalization: %+v", job.Spec)
		}
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
			t.Fatal("greedy cd: ℓ1 objective produced no exact zeros")
		}
		if nonzeros == 0 {
			t.Fatal("greedy cd: solve collapsed to the all-zero model")
		}
	})
}

// TestCDBarrierPicksTheArm: cd honours the barrier it is given. Under SSP
// greedy mode is refused on Engine.Solve, since its selector needs the whole
// round gradient and a non-BSP barrier steps on each partial; a cd job
// submitted with an ssp barrier runs the per-partial arm to the end.
func TestCDBarrierPicksTheArm(t *testing.T) {
	eng, err := async.New(async.WithWorkers(2), async.WithPartitions(4))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	d, err := dataset.Generate(dataset.RCV1Like(dataset.ScaleTiny, 1))
	if err != nil {
		t.Fatal(err)
	}
	opts := async.SolveOptions{Params: opt.Params{Updates: 10, Barrier: async.SSP(2)}}
	opts.CD.Mode = "greedy"
	if _, err := eng.Solve(context.Background(), "cd", d, opts); err == nil ||
		!strings.Contains(err.Error(), `"greedy"`) || !strings.Contains(err.Error(), "BSP barrier") {
		t.Fatalf("greedy cd under SSP: err = %v, want a refusal naming greedy and the barrier", err)
	}

	s := newScheduler(t, jobs.Config{Engines: 1})
	for barrier, algo := range map[jobs.BarrierSpec]string{{Kind: "ssp", Staleness: 2}: "CD-async", {}: "CD"} {
		id, err := s.Submit(jobs.Spec{
			Algorithm: "cd", Dataset: jobs.DatasetSpec{Name: "rcv1-like"},
			Barrier:   barrier,
			Objective: async.Objective{Loss: "least-squares", L2: 0.01, L1: 0.01},
			Updates:   30, SnapshotEvery: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, id, jobs.StateDone)
		res, err := s.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if res.Trace.Algorithm != algo {
			t.Fatalf("cd job under barrier %+v ran as %q, want %q", barrier, res.Trace.Algorithm, algo)
		}
	}
}
