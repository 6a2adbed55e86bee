package jobs_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/async"
	"repro/async/jobs"
	"repro/async/jobs/store"
	"repro/internal/dataset"
	"repro/internal/la"
	"repro/internal/metrics"
	"repro/internal/opt"
)

// scripted is a test solver the golden test steps by hand: every dispatch
// announces itself (the resume clock, or -1 for a fresh start) and then
// obeys one command at a time — capture a periodic checkpoint, finish,
// fail — or answers a preemption request with a checkpoint.
type scripted struct {
	name   string
	starts chan int64
	cmds   chan scriptCmd
}

type scriptCmd struct {
	kind    string // "checkpoint", "done", "fail"
	seq     int64  // dispatch_seq of the capture
	updates int64
}

func (g *scripted) Name() string { return g.name }

func (g *scripted) capture(d *dataset.Dataset, seq, updates int64) *opt.Checkpoint {
	cp := &opt.Checkpoint{Algorithm: g.name, W: la.NewVec(d.NumCols()), Updates: updates}
	cp.SetInt("dispatch_seq", seq)
	return cp
}

func (g *scripted) Solve(ctx context.Context, e *async.Engine, d *dataset.Dataset, opts async.SolveOptions) (*async.Result, error) {
	if r := opts.Params.Resume; r != nil {
		g.starts <- r.Updates
	} else {
		g.starts <- -1
	}
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case c := <-g.cmds:
			switch c.kind {
			case "checkpoint":
				opts.Params.OnCheckpoint(g.capture(d, c.seq, c.updates))
			case "fail":
				return nil, errors.New("boom")
			default:
				return &async.Result{
					Trace: &metrics.Trace{
						Algorithm: g.name,
						Dataset:   d.Name,
						Points:    []metrics.TracePoint{{Updates: int64(opts.Params.Updates), Error: 0.5}},
					},
					W: la.NewVec(d.NumCols()),
				}, nil
			}
		case <-tick.C:
			if opts.Params.Preempt.Requested() {
				// the preemption capture sits 100 updates and 4 dispatches
				// past wherever this run started
				from := int64(0)
				if r := opts.Params.Resume; r != nil {
					from = r.Updates
				}
				return nil, &opt.PreemptedError{Checkpoint: g.capture(d, from/10+4, from+100)}
			}
		}
	}
}

var goldSolver = &scripted{name: "scripted-golden", starts: make(chan int64, 8), cmds: make(chan scriptCmd)}

func init() {
	if err := async.Register(goldSolver); err != nil {
		panic(err)
	}
}

// recordingStore is a sole-owner WAL that keeps the stream of acknowledged
// appends as (Type, Job, Updates, DispatchSeq, Detail, HasFinal) tuples —
// everything a record says except when it said it.
type recordingStore struct {
	*store.WAL
	mu     sync.Mutex
	stream []string
}

func (r *recordingStore) Append(rec *store.Record) error {
	if err := r.WAL.Append(rec); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stream = append(r.stream, fmt.Sprintf("%s %s updates=%d dispatch_seq=%d detail=%q has_final=%v",
		rec.Type, rec.Job, rec.Updates, rec.DispatchSeq, rec.Detail, rec.HasFinal))
	return nil
}

// goldenStream is the record stream the scripted history below appends,
// captured at the commit before the lifecycle fold landed. The refactor
// must reproduce it exactly: same records, same order, same fields.
const goldenStream = `
submitted job-000001 updates=0 dispatch_seq=0 detail="" has_final=false
dispatched job-000001 updates=0 dispatch_seq=0 detail="" has_final=false
checkpointed job-000001 updates=100 dispatch_seq=5 detail="" has_final=false
submitted job-000002 updates=0 dispatch_seq=0 detail="" has_final=false
canceled job-000002 updates=0 dispatch_seq=0 detail="context canceled" has_final=false
preempted job-000001 updates=100 dispatch_seq=4 detail="" has_final=false
dispatched job-000001 updates=100 dispatch_seq=0 detail="" has_final=false
done job-000001 updates=500 dispatch_seq=0 detail="" has_final=true
submitted job-000003 updates=0 dispatch_seq=0 detail="" has_final=false
dispatched job-000003 updates=0 dispatch_seq=0 detail="" has_final=false
failed job-000003 updates=0 dispatch_seq=0 detail="boom" has_final=false
submitted job-000004 updates=0 dispatch_seq=0 detail="" has_final=false
dispatched job-000004 updates=0 dispatch_seq=0 detail="" has_final=false
checkpointed job-000004 updates=50 dispatch_seq=3 detail="" has_final=false
submitted job-000005 updates=0 dispatch_seq=0 detail="" has_final=false
preempted job-000004 updates=100 dispatch_seq=4 detail="" has_final=false
dispatched job-000004 updates=100 dispatch_seq=0 detail="" has_final=false
checkpointed job-000004 updates=150 dispatch_seq=11 detail="" has_final=false
done job-000004 updates=400 dispatch_seq=0 detail="" has_final=true
dispatched job-000005 updates=0 dispatch_seq=0 detail="" has_final=false
done job-000005 updates=600 dispatch_seq=0 detail="" has_final=true
`

// TestGoldenRecordStream pins what the scheduler writes to its log: one
// single-owner scheduler over a WAL runs a scripted history — a job
// that checkpoints, is preempted by hand, resumes and finishes; one
// canceled while queued; one that fails; a drain and restart with a
// preempted and a queued job in flight; compactions every six appends and
// after recovery — and the appended stream must match the literal above.
func TestGoldenRecordStream(t *testing.T) {
	rs := &recordingStore{WAL: openSole(t)}
	spec := func(updates int) jobs.Spec {
		return jobs.Spec{
			Algorithm:  goldSolver.name,
			Dataset:    jobs.DatasetSpec{Name: "rcv1-like"},
			Updates:    updates,
			MaxRetries: -1,
		}
	}
	submit := func(s *jobs.Scheduler, updates int) jobs.ID {
		t.Helper()
		id, err := s.Submit(spec(updates))
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	started := func(want int64) {
		t.Helper()
		select {
		case got := <-goldSolver.starts:
			if got != want {
				t.Fatalf("run started from %d, want %d", got, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("no run started (want %d)", want)
		}
	}
	command := func(c scriptCmd) {
		t.Helper()
		select {
		case goldSolver.cmds <- c:
		case <-time.After(10 * time.Second):
			t.Fatalf("no run took command %+v", c)
		}
	}
	spilled := func(n int64) {
		t.Helper()
		waitFor(t, 10*time.Second, fmt.Sprintf("%d checkpoint spills", n), func() bool {
			return rs.Metrics().CheckpointSpills >= n
		})
	}

	cfg := jobs.Config{Engines: 1, Store: rs, CompactEvery: 6}
	s1 := newScheduler(t, cfg)

	// job 1: dispatch, periodic checkpoint, manual preempt, resume, done;
	// job 2 is canceled while it waits behind job 1
	j1 := submit(s1, 500)
	started(-1)
	command(scriptCmd{kind: "checkpoint", seq: 5, updates: 100})
	spilled(1)
	j2 := submit(s1, 700)
	if err := s1.Cancel(j2); err != nil {
		t.Fatal(err)
	}
	waitState(t, s1, j2, jobs.StateCanceled)
	if err := s1.Preempt(j1); err != nil {
		t.Fatal(err)
	}
	started(100) // resumed from the preemption capture
	command(scriptCmd{kind: "done"})
	waitState(t, s1, j1, jobs.StateDone)

	// job 3 fails
	j3 := submit(s1, 300)
	started(-1)
	command(scriptCmd{kind: "fail"})
	waitState(t, s1, j3, jobs.StateFailed)

	// job 4 is checkpointed and drained aside with job 5 queued behind it
	j4 := submit(s1, 400)
	started(-1)
	command(scriptCmd{kind: "checkpoint", seq: 3, updates: 50})
	spilled(3)
	j5 := submit(s1, 600)
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// restart on the same store: recovery, then both jobs finish
	s2 := newScheduler(t, cfg)
	if st := s2.Stats(); st.RecoveredJobs != 5 {
		t.Fatalf("recovered %d jobs, want 5", st.RecoveredJobs)
	}
	started(100) // job 4 resumes from the drain capture
	command(scriptCmd{kind: "checkpoint", seq: 11, updates: 150})
	spilled(5)
	command(scriptCmd{kind: "done"})
	waitState(t, s2, j4, jobs.StateDone)
	started(-1)
	command(scriptCmd{kind: "done"})
	waitState(t, s2, j5, jobs.StateDone)
	if m := rs.Metrics(); m.Compactions < 3 {
		t.Fatalf("%d compactions, want the periodic ones and the post-recovery one", m.Compactions)
	}

	rs.mu.Lock()
	got := strings.Join(rs.stream, "\n")
	rs.mu.Unlock()
	if want := strings.TrimSpace(goldenStream); got != want {
		t.Fatalf("appended record stream changed:\n--- got\n%s\n--- want\n%s", got, want)
	}
}
