package core

import (
	"encoding/gob"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
)

// echoArgs is the registered-op argument type for the ASYNCreduceOp tests.
type echoArgs struct {
	Factor int
	Parts  []int
}

func init() {
	gob.Register(echoArgs{})
	cluster.RegisterOp("core.testRowsTimes", func(env *cluster.Env, t *cluster.Task) (any, error) {
		a := t.Args.(echoArgs)
		n := 0
		for _, p := range a.Parts {
			part, err := env.Partition(p)
			if err != nil {
				return nil, err
			}
			n += part.NumRows()
		}
		return ReducePayload{Val: n * a.Factor, N: n}, nil
	})
}

func TestASYNCreduceOp(t *testing.T) {
	ac, _ := setup(t, 3, 6, nil)
	sel, err := ac.ASYNCbarrier(ASP(), nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := ac.ASYNCreduceOp(sel, "core.testRowsTimes", func(worker int, parts []int) any {
		return echoArgs{Factor: 2, Parts: parts}
	})
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
			t.Fatal("op result lost its batch attribute")
		}
	}
	if total != 2*96 {
		t.Fatalf("total = %d, want 192", total)
	}
}

func TestASYNCreduceOpUnknownOpFails(t *testing.T) {
	ac, _ := setup(t, 1, 1, nil)
	sel, err := ac.ASYNCbarrier(ASP(), nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := ac.ASYNCreduceOp(sel, "core.noSuchOp", func(int, []int) any { return nil })
	if err != nil {
		t.Fatal(err)
	}
	// dispatch succeeds; the task fails on the worker and produces no
	// queue entry, so pending must drain to zero
	if n != 1 {
		t.Fatalf("dispatched %d", n)
	}
	deadline := time.Now().Add(3 * time.Second)
	for ac.coord.Pending() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("pending stuck after failed op")
		}
		time.Sleep(time.Millisecond)
	}
	if ac.HasNext() {
		t.Fatal("failed op produced a result")
	}
}

func TestASYNCcollectTimeout(t *testing.T) {
	ac, _ := setup(t, 1, 1, nil)
	sel, err := ac.ASYNCbarrier(ASP(), nil)
	if err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	if _, err := ac.ASYNCreduce(sel, func(env *cluster.Env, parts []int, seed int64) (any, int, error) {
		<-block
		return 1, 1, nil
	}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := ac.ASYNCcollectTimeout(50 * time.Millisecond); err == nil {
		t.Fatal("timeout collect succeeded with no result")
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond || elapsed > 2*time.Second {
		t.Fatalf("timeout fired after %v", elapsed)
	}
	close(block)
	if _, err := ac.ASYNCcollectTimeout(2 * time.Second); err != nil {
		t.Fatalf("collect after unblock: %v", err)
	}
}

func TestSelectionReleaseAfterReduceIsNoop(t *testing.T) {
	ac, _ := setup(t, 2, 2, nil)
	sel, err := ac.ASYNCbarrier(ASP(), nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := ac.ASYNCreduce(sel, countKernel)
	if err != nil {
		t.Fatal(err)
	}
	sel.Release() // must not free workers that are running tasks
	for i := 0; i < n; i++ {
		if _, err := ac.ASYNCcollect(); err != nil {
			t.Fatal(err)
		}
	}
	if got := ac.STAT().AvailableWorkers; got != 2 {
		t.Fatalf("available = %d", got)
	}
}

func TestBarrierNilIsASP(t *testing.T) {
	ac, _ := setup(t, 2, 2, nil)
	sel, err := ac.ASYNCbarrier(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Workers) != 2 {
		t.Fatalf("nil barrier selected %v", sel.Workers)
	}
	sel.Release()
}

func TestPSPFilterAdmitsFraction(t *testing.T) {
	ac, _ := setup(t, 4, 4, nil)
	rng := rand.New(rand.NewSource(5))
	admitted := 0
	const rounds = 40
	for i := 0; i < rounds; i++ {
		sel, err := ac.ASYNCbarrier(ASP(), PSP(0.5, rng))
		if err != nil {
			// PSP can reject everyone in a round; barrier waits — with no
			// pending work it times out. Use a short timeout and continue.
			continue
		}
		admitted += len(sel.Workers)
		sel.Release()
	}
	mean := float64(admitted) / rounds
	if mean < 1 || mean > 3 {
		t.Fatalf("PSP(0.5) admitted %.2f of 4 workers on average", mean)
	}
}

func TestUpdatesMonotone(t *testing.T) {
	ac, _ := setup(t, 1, 1, nil)
	prev := ac.Updates()
	for i := 0; i < 10; i++ {
		got := ac.AdvanceClock()
		if got != prev+1 {
			t.Fatalf("clock jumped %d → %d", prev, got)
		}
		prev = got
	}
}
