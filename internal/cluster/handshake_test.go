package cluster

import (
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/straggler"
)

// dialRaw opens a framed endpoint without the worker runtime, to exercise
// the handshake rejection paths.
func dialRaw(t *testing.T, addr string) Endpoint {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return NewFramedEndpoint(conn)
}

// TestServeTCPRejectsBadHandshake: connections with a wrong first message,
// out-of-range id, or duplicate id are dropped and their slot stays open
// for a correct worker.
func TestServeTCPRejectsBadHandshake(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	type res struct {
		c   *Cluster
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ServeTCP(ln, 2)
		ch <- res{c, err}
	}()

	// 1: wrong first message kind
	bad1 := dialRaw(t, addr)
	_ = bad1.Send(Message{Kind: KindShutdown})
	// 2: out-of-range worker id
	bad2 := dialRaw(t, addr)
	_ = bad2.Send(Message{Kind: KindHello, Hello: &Hello{Worker: 9}})
	// 3: legitimate worker 0
	go func() { _ = DialWorkerTCP(addr, 0, straggler.None{}, 1) }()
	time.Sleep(100 * time.Millisecond)
	// 4: duplicate worker 0 (must be dropped)
	bad3 := dialRaw(t, addr)
	_ = bad3.Send(Message{Kind: KindHello, Hello: &Hello{Worker: 0}})
	// 5: legitimate worker 1 completes the pool
	go func() { _ = DialWorkerTCP(addr, 1, straggler.None{}, 2) }()

	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatal(r.err)
		}
		defer func() {
			r.c.Shutdown()
			_ = ln.Close()
		}()
		if got := len(r.c.AliveWorkers()); got != 2 {
			t.Fatalf("alive workers = %d, want 2", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("handshake test timed out")
	}
	_ = bad1.Close()
	_ = bad2.Close()
	_ = bad3.Close()
}

func TestServeTCPRejectsZeroWorkers(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, err := ServeTCP(ln, 0); err == nil {
		t.Fatal("zero workers accepted")
	}
}

func TestEnvRandSeeded(t *testing.T) {
	draw := func(seed int64) float64 {
		e := NewEnv(0, seed, nil)
		var out float64
		e.Rand(func(r *rand.Rand) { out = r.Float64() })
		return out
	}
	if draw(7) != draw(7) {
		t.Fatal("same seed, different draw")
	}
	if draw(7) == draw(8) {
		t.Fatal("different seeds, same draw")
	}
}

func TestEnvStore(t *testing.T) {
	e := NewEnv(0, 1, nil)
	made := 0
	v := e.StoreGetOrCreate("k", func() any { made++; return 42 })
	if v != 42 || made != 1 {
		t.Fatalf("create: %v %d", v, made)
	}
	v = e.StoreGetOrCreate("k", func() any { made++; return 99 })
	if v != 42 || made != 1 {
		t.Fatalf("second create ran: %v %d", v, made)
	}
	e.StoreClear()
	v = e.StoreGetOrCreate("k", func() any { made++; return 99 })
	if v != 99 || made != 2 {
		t.Fatalf("create after clear: %v %d", v, made)
	}
}

// Rand calls f with the worker's seeded RNG under a lock.
func (e *Env) Rand(f func(*rand.Rand)) {
	e.rngMu.Lock()
	defer e.rngMu.Unlock()
	f(e.rng)
}
