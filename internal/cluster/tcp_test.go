package cluster

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/la"
	"repro/internal/straggler"
)

// tcpArgs / tcpReply are the payload types shipped over the wire in these
// tests; each gets a payload codec, like any real op's types would.
type tcpArgs struct {
	Scale float64
}

type tcpReply struct {
	Rows int
	Sum  float64
}

func init() {
	RegisterPayloadCodec(200, tcpArgs{},
		func(w *BinWriter, v any) error { w.PutFloat64(v.(tcpArgs).Scale); return nil },
		func(r *BinReader) (any, error) { return tcpArgs{Scale: r.Float64()}, r.Err() })
	RegisterPayloadCodec(201, tcpReply{},
		func(w *BinWriter, v any) error {
			w.PutVarint(int64(v.(tcpReply).Rows))
			w.PutFloat64(v.(tcpReply).Sum)
			return nil
		},
		func(r *BinReader) (any, error) { return tcpReply{Rows: int(r.Varint()), Sum: r.Float64()}, r.Err() })
	RegisterOp("test.tcpSum", func(env *Env, t *Task) (any, error) {
		p, err := env.Partition(t.Partition)
		if err != nil {
			return nil, err
		}
		a := t.Args.(tcpArgs)
		var sum float64
		for _, y := range p.Y {
			sum += y * a.Scale
		}
		return tcpReply{Rows: p.NumRows(), Sum: sum}, nil
	})
	RegisterOp("test.tcpBroadcastNorm", func(env *Env, t *Task) (any, error) {
		v, err := env.BroadcastValue("model", t.Args.(int64))
		if err != nil {
			return nil, err
		}
		return la.Norm2(v.(la.Vec)), nil
	})
}

func startTCPCluster(t *testing.T, n int) *Cluster {
	t.Helper()
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
		c, err := ServeTCP(ln, n)
		ch <- res{c, err}
	}()
	for i := 0; i < n; i++ {
		go func(id int) {
			_ = DialWorkerTCP(addr, id, straggler.None{}, int64(id))
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

func TestTCPClusterOpTask(t *testing.T) {
	c := startTCPCluster(t, 2)
	for w := 0; w < 2; w++ {
		p := tinyPartition(t, w)
		if err := c.Install(w, p, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < 2; w++ {
		task := &Task{ID: c.NextTaskID(), Op: "test.tcpSum", Args: tcpArgs{Scale: 2}, Partition: w}
		if err := c.Submit(w, task); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		r := awaitResult(t, c)
		if r.Failed() {
			t.Fatalf("tcp task failed: %s", r.Err)
		}
		rep, ok := r.Payload.(tcpReply)
		if !ok {
			t.Fatalf("payload type %T", r.Payload)
		}
		if rep.Rows == 0 {
			t.Fatal("empty partition over TCP")
		}
	}
}

func TestTCPClusterFetchPath(t *testing.T) {
	c := startTCPCluster(t, 1)
	model := la.Vec{3, 4}
	c.SetFetchHandler(func(string, int64, int64) (FetchAnswer, error) {
		return FetchAnswer{Value: model}, nil
	})
	task := &Task{ID: c.NextTaskID(), Op: "test.tcpBroadcastNorm", Args: int64(5)}
	if err := c.Submit(0, task); err != nil {
		t.Fatal(err)
	}
	r := awaitResult(t, c)
	if r.Failed() {
		t.Fatalf("fetch over TCP failed: %s", r.Err)
	}
	if got := r.Payload.(float64); got != 5 {
		t.Fatalf("norm = %v, want 5", got)
	}
}

// TestTCPSubmitFuncTaskRefused: a task carrying an in-process func cannot
// be encoded; Submit says so and the worker — not at fault — stays alive
// and keeps serving ops.
func TestTCPSubmitFuncTaskRefused(t *testing.T) {
	c := startTCPCluster(t, 1)
	if c.InProcess() {
		t.Fatal("TCP cluster reports in-process workers")
	}
	if local := newTestCluster(t, 1, nil); !local.InProcess() {
		t.Fatal("local cluster reports wired workers")
	}
	task := &Task{ID: c.NextTaskID()}
	task.SetFunc(func(*Env, *Task) (any, error) { return nil, nil })
	if err := c.Submit(0, task); !errors.Is(err, ErrNotEncodable) {
		t.Fatalf("func task over TCP: err = %v, want ErrNotEncodable", err)
	}
	if !c.Alive(0) {
		t.Fatal("an unencodable task marked its worker down")
	}
	c.SetFetchHandler(func(string, int64, int64) (FetchAnswer, error) { return FetchAnswer{Value: la.Vec{3, 4}}, nil })
	if err := c.Submit(0, &Task{ID: c.NextTaskID(), Op: "test.tcpBroadcastNorm", Args: int64(1)}); err != nil {
		t.Fatal(err)
	}
	if r := awaitResult(t, c); r.Failed() || r.Payload.(float64) != 5 {
		t.Fatalf("worker unusable after a refused task: %+v", r)
	}
}
