package opt

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/telemetry"
)

// segCfg parameterizes one segment of a resume-equivalence run: the first
// segment sets a checkpoint cadence and a preemption signal, the second
// resumes from the captured checkpoint.
type segCfg struct {
	every   int
	onCp    func(*Checkpoint)
	preempt *PreemptSignal
	resume  *Checkpoint
}

func (s segCfg) apply(p *Params) {
	p.CheckpointEvery = s.every
	p.OnCheckpoint = s.onCp
	p.Preempt = s.preempt
	p.Resume = s.resume
}

// resumePair pins the resume-equivalence contract for one solver: a run
// preempted at update k and resumed from its checkpoint (round-tripped
// through the on-disk codec, as a scheduler would persist it) must match
// the uninterrupted run on the same seeds. makeRig builds identical rigs
// (fixed seeds); run drives the solver with the segment config applied.
func resumePair(t *testing.T, k int64, tol float64,
	makeRig func(t *testing.T) *rig,
	run func(r *rig, seg segCfg) (*Result, error)) {
	t.Helper()

	full := makeRig(t)
	resFull, err := run(full, segCfg{})
	if err != nil {
		t.Fatal(err)
	}

	r2 := makeRig(t)
	sig := NewPreemptSignal()
	var seen *Checkpoint
	_, err = run(r2, segCfg{
		every:   int(k),
		preempt: sig,
		onCp: func(c *Checkpoint) {
			if seen == nil {
				seen = c
				sig.Trigger()
			}
		},
	})
	var pe *PreemptedError
	if !errors.As(err, &pe) {
		t.Fatalf("want PreemptedError, got %v", err)
	}
	if pe.Checkpoint.Updates != k {
		t.Fatalf("preempted at update %d, want %d", pe.Checkpoint.Updates, k)
	}
	if seen == nil || seen.Updates != k {
		t.Fatalf("periodic checkpoint not captured at %d: %+v", k, seen)
	}

	// resume from exactly what a scheduler would have persisted: the
	// checkpoint round-tripped through the binary codec
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, pe.Checkpoint); err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	resResumed, err := run(r2, segCfg{resume: cp})
	if err != nil {
		t.Fatal(err)
	}
	if !la.Equal(resFull.W, resResumed.W, tol) {
		t.Fatalf("resumed model diverged from uninterrupted run (tol %g)", tol)
	}
	if got := resResumed.Trace.Points[0].Updates; got != k {
		t.Fatalf("resumed trace starts at update %d, want %d", got, k)
	}
}

// denseRig is the deterministic single-worker fixture the equivalence runs
// use: with one worker, dispatch/collect interleaving is sequential, so an
// uninterrupted run is bit-reproducible and the comparison is meaningful.
func denseRig(t *testing.T) *rig { return newRig(t, 1, 2, nil) }

// resumePairEachTransport runs resumePair on the single-worker dense fixture
// over every transport: a solver's resume contract holds to the same
// tolerance whether the worker is a goroutine or a socket away.
func resumePairEachTransport(t *testing.T, k int64, tol float64, run func(r *rig, seg segCfg) (*Result, error)) {
	eachTransport(t, func(t *testing.T, tr transport) {
		resumePair(t, k, tol, func(t *testing.T) *rig {
			return newRigOn(t, tr, 1, 2, nil, denseCfg())
		}, run)
	})
}

// asgdParams is the shared base configuration (12 update budget).
func asgdParams() Params {
	return Params{Step: InvSqrt{A: 0.05}, SampleFrac: 0.4, Updates: 12, SnapshotEvery: 4}
}

// TestEverySolverTracesItsRun walks the registry: whatever Params carries
// reaches the runtime, so every solver's run-scoped trace says when the run
// started, checkpointed and finished. A solver that rebuilds its Params by
// hand and forgets a field (admm once dropped Trace) fails here.
func TestEverySolverTracesItsRun(t *testing.T) {
	for _, name := range SolverNames() {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, 2, 4, nil)
			s, err := LookupSolver(name)
			if err != nil {
				t.Fatal(err)
			}
			p := asgdParams()
			p.Trace = telemetry.NewTrace("run-"+name, 0)
			p.CheckpointEvery = 4
			p.OnCheckpoint = func(*Checkpoint) {}
			if _, err := s.Solve(context.Background(), SolveRequest{
				AC: r.ac, Points: r.points, Data: r.d,
				Config: SolveConfig{Params: p, FStar: r.fstar},
			}); err != nil {
				t.Fatal(err)
			}
			var events bytes.Buffer
			if _, err := p.Trace.WriteTo(&events); err != nil {
				t.Fatal(err)
			}
			for _, ev := range []string{"run_start", "checkpoint", "run_done"} {
				if !strings.Contains(events.String(), `"event":"`+ev+`"`) {
					t.Errorf("no %s event in the run's trace:\n%s", ev, events.String())
				}
			}
		})
	}
}

func TestResumeEquivalenceSyncSGD(t *testing.T) {
	resumePairEachTransport(t, 6, 0, func(r *rig, seg segCfg) (*Result, error) {
		p := asgdParams()
		seg.apply(&p)
		return SyncSGD(r.ac, r.d, p, r.fstar)
	})
}

func TestResumeEquivalenceASGD(t *testing.T) {
	resumePairEachTransport(t, 6, 0, func(r *rig, seg segCfg) (*Result, error) {
		p := asgdParams()
		seg.apply(&p)
		return ASGD(r.ac, r.d, p, r.fstar)
	})
}

func TestResumeEquivalenceSAGA(t *testing.T) {
	resumePairEachTransport(t, 6, 0, func(r *rig, seg segCfg) (*Result, error) {
		p := asgdParams()
		seg.apply(&p)
		return SAGA(r.ac, r.d, p, r.fstar)
	})
}

func TestResumeEquivalenceASAGA(t *testing.T) {
	resumePairEachTransport(t, 6, 0, func(r *rig, seg segCfg) (*Result, error) {
		p := asgdParams()
		seg.apply(&p)
		return ASAGA(r.ac, r.d, p, r.fstar)
	})
}

// TestTransportsAgreeBitwise: on one worker a run is sequential, so the
// same solver on the same seeds must produce the same bits over channels
// and over sockets — the wire moves values, it never changes them. Every
// AC-based registry solver is here, cd in two of its modes and in its
// per-partial arm.
func TestTransportsAgreeBitwise(t *testing.T) {
	elastic := Composite{Inner: LeastSquares{}, L2: 0.02, L1: 0.01}
	cd := func(mode string, barrier core.BarrierFunc) func(*rig, Params) (*Result, error) {
		return func(r *rig, p Params) (*Result, error) {
			p.Loss, p.Barrier = elastic, barrier
			return CD(r.ac, r.d, p, CDConfig{BlockSize: 4, Mode: mode, Seed: 5}, 0)
		}
	}
	for name, solve := range map[string]func(*rig, Params) (*Result, error){
		"sgd":   func(r *rig, p Params) (*Result, error) { return SyncSGD(r.ac, r.d, p, r.fstar) },
		"asgd":  func(r *rig, p Params) (*Result, error) { return ASGD(r.ac, r.d, p, r.fstar) },
		"saga":  func(r *rig, p Params) (*Result, error) { return SAGA(r.ac, r.d, p, r.fstar) },
		"asaga": func(r *rig, p Params) (*Result, error) { return ASAGA(r.ac, r.d, p, r.fstar) },
		"svrg": func(r *rig, p Params) (*Result, error) {
			return EpochVR(r.ac, r.d, p, VRConfig{Epochs: 3, UpdatesPerEpoch: 4}, r.fstar)
		},
		"cd-cyclic": cd("cyclic", nil),
		"cd-greedy": cd("greedy", nil),
		"cd-async":  cd("random", core.ASP()),
		"gcg-full": func(r *rig, p Params) (*Result, error) {
			p.Loss = elastic
			return GCG(r.ac, r.d, p, GCGConfig{RestartEvery: 5}, 0)
		},
		"admm": func(r *rig, p Params) (*Result, error) {
			return ADMM(r.ac, r.d, Params{Updates: p.Updates, SnapshotEvery: p.SnapshotEvery}, ADMMConfig{Rho: 1}, r.fstar)
		},
	} {
		t.Run(name, func(t *testing.T) {
			var ws []la.Vec
			for _, tr := range []transport{local, loopback} {
				res, err := solve(newRigOn(t, tr, 1, 2, nil, denseCfg()), asgdParams())
				if err != nil {
					t.Fatalf("%s: %v", tr, err)
				}
				ws = append(ws, res.W)
			}
			if !la.Equal(ws[0], ws[1], 0) {
				t.Fatalf("local and TCP runs diverged:\n%v\n%v", ws[0], ws[1])
			}
			if la.Norm2(ws[0]) == 0 {
				t.Fatal("the run never moved the model: equal bits prove nothing")
			}
		})
	}
}

func TestResumeEquivalenceEpochVR(t *testing.T) {
	// k=7 lands mid-epoch (epochs of 5): the resumed run must continue
	// against the checkpointed anchor and μ, not re-anchor
	resumePairEachTransport(t, 7, 0, func(r *rig, seg segCfg) (*Result, error) {
		p := Params{Step: Constant{A: 0.03}, SampleFrac: 0.4, Updates: 1, SnapshotEvery: 5}
		seg.apply(&p)
		return EpochVR(r.ac, r.d, p, VRConfig{Epochs: 3, UpdatesPerEpoch: 5}, r.fstar)
	})
}

func TestResumeEquivalenceADMM(t *testing.T) {
	resumePairEachTransport(t, 6, 0, func(r *rig, seg segCfg) (*Result, error) {
		p := Params{Updates: 12, SnapshotEvery: 4}
		seg.apply(&p)
		return ADMM(r.ac, r.d, p, ADMMConfig{Rho: 1}, r.fstar)
	})
}

// TestResumeEquivalenceCDAsync: on the per-partial arm every task rebuilds
// its residuals from its model version, and the checkpointed dispatch count
// replays the block RNG, so the resumed run is bitwise the uninterrupted one.
func TestResumeEquivalenceCDAsync(t *testing.T) {
	resumePairEachTransport(t, 6, 0, func(r *rig, seg segCfg) (*Result, error) {
		p, c := Params{Barrier: core.ASP()}, CDConfig{BlockSize: 4, Mode: "random", Seed: 5}
		p.Loss = Composite{Inner: LeastSquares{}, L2: 0.05, L1: 0.01}
		p.Updates = 12
		p.SnapshotEvery = 4
		seg.apply(&p)
		return CD(r.ac, r.d, p, c, 0)
	})
}

// TestResumeEquivalenceCD: the checkpointed dispatch count replays the
// block sequence (cyclic position or seeded permutation) exactly; the
// resume rebuilds per-partition residuals from the restored model, so the
// trajectories agree to rounding rather than bitwise.
func TestResumeEquivalenceCD(t *testing.T) {
	resumePairEachTransport(t, 6, 1e-9, func(r *rig, seg segCfg) (*Result, error) {
		p, c := Params{}, CDConfig{BlockSize: 4, Mode: "random", Seed: 5}
		p.Loss = Composite{Inner: LeastSquares{}, L2: 0.05, L1: 0.01}
		p.Updates = 12
		p.SnapshotEvery = 4
		seg.apply(&p)
		return CD(r.ac, r.d, p, c, 0)
	})
}

// TestResumeEquivalenceGCG: with the preemption point on a restart
// boundary (k = 6, RestartEvery = 3) both runs drop the conjugate
// direction there, so the resumed trajectory is bitwise identical.
func TestResumeEquivalenceGCG(t *testing.T) {
	resumePairEachTransport(t, 6, 0, func(r *rig, seg segCfg) (*Result, error) {
		p, c := Params{}, GCGConfig{RestartEvery: 3}
		p.Step = Constant{A: 0.02}
		p.Updates = 12
		p.SnapshotEvery = 4
		seg.apply(&p)
		return GCG(r.ac, r.d, p, c, 0)
	})
}

func TestResumeEquivalenceMllibSGD(t *testing.T) {
	resumePair(t, 6, 0, denseRig, func(r *rig, seg segCfg) (*Result, error) {
		p := asgdParams()
		seg.apply(&p)
		return MllibSGD(context.Background(), r.rctx, r.points, r.d, p, r.fstar)
	})
}

// TestResumeEquivalenceLazyRidge covers the deferred-term tolerance: the
// checkpoint settles the lazy L2 shrinkage at update k, so the resumed
// trajectory matches the uninterrupted one only to rounding (the deferred
// factors telescope into products).
func TestResumeEquivalenceLazyRidge(t *testing.T) {
	makeRig := func(t *testing.T) *rig {
		ac, d := newSparseRig(t, 1, 2, sparseCfg())
		return &rig{ac: ac, d: d}
	}
	resumePair(t, 40, 1e-9, makeRig, func(r *rig, seg segCfg) (*Result, error) {
		p := Params{
			Loss: Composite{Inner: LeastSquares{}, L2: 0.05},
			Step: InvSqrt{A: 0.1}, SampleFrac: 0.3, Updates: 100, SnapshotEvery: 25,
		}
		seg.apply(&p)
		return ASGD(r.ac, r.d, p, 0)
	})
}

// TestResumeEquivalenceLazyASAGA covers the deferred avgHist drift of the
// sparse SAGA path across a checkpoint settle.
func TestResumeEquivalenceLazyASAGA(t *testing.T) {
	makeRig := func(t *testing.T) *rig {
		ac, d := newSparseRig(t, 1, 2, sparseCfg())
		return &rig{ac: ac, d: d}
	}
	resumePair(t, 40, 1e-9, makeRig, func(r *rig, seg segCfg) (*Result, error) {
		p := Params{Step: Constant{A: 0.02}, SampleFrac: 0.25, Updates: 100, SnapshotEvery: 25}
		seg.apply(&p)
		return ASAGA(r.ac, r.d, p, 0)
	})
}

// TestPreemptBeforeFirstUpdate: a signal raised before the run starts is
// honoured at the first boundary check, before any dispatch.
func TestPreemptBeforeFirstUpdate(t *testing.T) {
	r := denseRig(t)
	sig := NewPreemptSignal()
	sig.Trigger()
	p := asgdParams()
	p.Preempt = sig
	_, err := ASGD(r.ac, r.d, p, r.fstar)
	var pe *PreemptedError
	if !errors.As(err, &pe) {
		t.Fatalf("want PreemptedError, got %v", err)
	}
	if pe.Checkpoint.Updates != 0 {
		t.Fatalf("preempted at %d, want 0", pe.Checkpoint.Updates)
	}
}

// TestResumeBeyondBudget: resuming a checkpoint at (or past) the budget
// returns immediately with the checkpointed model.
func TestResumeBeyondBudget(t *testing.T) {
	r := denseRig(t)
	p := asgdParams()
	cp := &Checkpoint{Algorithm: "asgd", W: la.NewVec(r.d.NumCols()), Updates: int64(p.Updates)}
	for i := range cp.W {
		cp.W[i] = float64(i)
	}
	p.Resume = cp
	res, err := ASGD(r.ac, r.d, p, r.fstar)
	if err != nil {
		t.Fatal(err)
	}
	if !la.Equal(res.W, cp.W, 0) {
		t.Fatal("exhausted resume did not return the checkpointed model")
	}
}

// TestSagaImportHistoryCoupling: avgHist is the mean of the worker-shard
// gradients, so Import restores it only when those shards survived (a
// same-context resume); after an engine reset it restarts at zero — a
// restored average over empty shards would bias the estimator forever.
func TestSagaImportHistoryCoupling(t *testing.T) {
	cpOf := func(attached bool) *Checkpoint {
		cp := &Checkpoint{Algorithm: "asaga", W: la.Vec{1, 2, 3}, Updates: 5, AvgHist: la.Vec{4, 5, 6}}
		cp.historyAttached = attached
		return cp
	}
	st := newSagaState(3, 10)
	if err := st.Import(cpOf(true)); err != nil {
		t.Fatal(err)
	}
	if !la.Equal(st.avgHist, la.Vec{4, 5, 6}, 0) {
		t.Fatal("attached resume did not restore avgHist")
	}
	if err := st.Import(cpOf(false)); err != nil {
		t.Fatal(err)
	}
	if la.Norm2(st.avgHist) != 0 {
		t.Fatal("detached resume kept stale avgHist over cleared history shards")
	}
	if !la.Equal(st.w, la.Vec{1, 2, 3}, 0) {
		t.Fatal("model not imported")
	}
}

// TestASAGAResumeAcrossReset: resuming ASAGA on a reset context (worker
// history wiped) must stay a correct, converging run — the cold-started
// estimator continues from the checkpointed model without bias.
func TestASAGAResumeAcrossReset(t *testing.T) {
	r := newRig(t, 1, 2, nil)
	p := Params{Step: Scaled{Base: InvSqrt{A: 0.08}, Factor: 1}, SampleFrac: 0.4,
		Updates: 300, SnapshotEvery: 100, CheckpointEvery: 150}
	var cp *Checkpoint
	sig := NewPreemptSignal()
	p.Preempt = sig
	p.OnCheckpoint = func(c *Checkpoint) {
		if cp == nil {
			cp = c
			sig.Trigger()
		}
	}
	var pe *PreemptedError
	if _, err := ASAGA(r.ac, r.d, p, r.fstar); !errors.As(err, &pe) {
		t.Fatalf("want preemption, got %v", err)
	}
	if err := r.ac.ResetRun(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	p2 := Params{Step: p.Step, SampleFrac: p.SampleFrac, Updates: p.Updates,
		SnapshotEvery: p.SnapshotEvery, Resume: pe.Checkpoint}
	res, err := ASAGA(r.ac, r.d, p2, r.fstar)
	if err != nil {
		t.Fatal(err)
	}
	mid := Objective(r.d, LeastSquares{}, pe.Checkpoint.W) - r.fstar
	final := Objective(r.d, LeastSquares{}, res.W) - r.fstar
	if final > mid {
		t.Fatalf("cross-reset resumed ASAGA regressed: %v -> %v", mid, final)
	}
}

// TestResumeDimMismatch: a checkpoint from a different problem fails loudly.
func TestResumeDimMismatch(t *testing.T) {
	r := denseRig(t)
	p := asgdParams()
	p.Resume = &Checkpoint{Algorithm: "asgd", W: la.Vec{1, 2, 3}, Updates: 1}
	if _, err := ASGD(r.ac, r.d, p, r.fstar); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}

// TestDivergedRunReturnsError: a run whose model leaves the finite floats
// ends with ErrDiverged at the first snapshot that shows it — on the
// streaming loop and on the round loop — instead of a nil error and a trace
// of NaNs.
func TestDivergedRunReturnsError(t *testing.T) {
	tooBig := Params{Step: Constant{A: 1e200}, SampleFrac: 0.4, Updates: 400, SnapshotEvery: 10}
	for name, solve := range map[string]func(*rig) (*Result, error){
		"asgd": func(r *rig) (*Result, error) { return ASGD(r.ac, r.d, tooBig, r.fstar) },
		"sgd":  func(r *rig) (*Result, error) { return SyncSGD(r.ac, r.d, tooBig, r.fstar) },
	} {
		r := newRig(t, 2, 4, nil)
		res, err := solve(r)
		if !errors.Is(err, ErrDiverged) || res != nil {
			t.Fatalf("%s: result %v, err %v; want ErrDiverged", name, res, err)
		}
		if !strings.Contains(err.Error(), "coordinate") || !strings.Contains(err.Error(), "updates") {
			t.Fatalf("%s: error does not say where and when: %v", name, err)
		}
		if got := r.ac.Updates(); got >= 400 {
			t.Fatalf("%s: ran its whole budget (%d updates) after diverging", name, got)
		}
	}
}

// TestSparsePublishCopiesOnRead pins what a published version costs. A
// 600-version publish stream, each version changing one coordinate of a
// 64k-coordinate model and reporting it, read by 4 cold workers at 4
// distinct versions, makes at most 2 full copies of the model plus one per
// version read: the first version, the store's base when that version is
// trimmed, and one vector per read. Cloning the model at every publish made
// 600. Copies are counted as the bytes the stream allocated, in whole models.
func TestSparsePublishCopiesOnRead(t *testing.T) {
	const dim, versions = 1 << 16, 600
	reads := map[int]bool{0: true, 150: true, 300: true, 599: true}
	r := newRigOn(t, local, 2, 2, nil, denseCfg())
	u := &reportingUpdater{vecUpdater: vecUpdater{w: la.NewVec(dim)}, changeSet: changeSet{all: true}}
	rt := &runState{spec: &loopSpec{Key: "count.w", P: &Params{}}, u: u, ac: r.ac}
	r.rctx.Broadcast("install", nil) // installs the driver store's handler
	fetch := r.c.SetFetchHandler(nil)
	defer r.c.SetFetchHandler(fetch)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range versions {
		j := i * 97 % dim
		u.w[j]++
		u.touch([]int32{int32(j)}, dim)
		br := rt.publish(r.ac, int64(i+1))
		if reads[i] {
			ans, err := fetch(br.ID, br.Version, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(ans.Value.(la.Vec), u.w) {
				t.Fatalf("version %d reads back a different model", i)
			}
		}
	}
	runtime.ReadMemStats(&after)
	if copies := (after.TotalAlloc - before.TotalAlloc) / (8 * dim); copies > uint64(2+len(reads)) {
		t.Fatalf("%d versions with %d reads allocated %d models, want at most %d", versions, len(reads), copies, 2+len(reads))
	}
}

// reportingUpdater is a bare model whose changes the test reports by hand.
type reportingUpdater struct {
	vecUpdater
	changeSet
}
