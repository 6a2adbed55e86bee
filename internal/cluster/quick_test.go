package cluster

import (
	"bytes"
	"encoding/gob"
	"testing"
	"testing/quick"
	"time"
)

// TestPropCacheBounded: whatever the insertion sequence, a bounded cache
// never holds more than maxVersions versions of an id, and Latest always
// reports the highest surviving version.
func TestPropCacheBounded(t *testing.T) {
	f := func(versions []uint8, bound uint8) bool {
		maxV := int(bound%8) + 1
		c := NewBroadcastCache(maxV)
		var lastVer int64 = -1
		for _, v := range versions {
			ver := int64(v)
			c.Put("id", ver, ver)
			lastVer = ver
		}
		st := c.Stats()
		if st.Versions > maxV {
			return false
		}
		if lastVer >= 0 {
			// the most recent Put must always be retrievable (eviction
			// drops the oldest-inserted version, never the newest)
			if got, ok := c.Get("id", lastVer); !ok || got != lastVer {
				return false
			}
			// Latest reports a surviving version at least as new as it
			latest, val, ok := c.Latest("id")
			if !ok || latest < lastVer {
				return false
			}
			if got, ok := c.Get("id", latest); !ok || got != val {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropCacheGetAfterPut: any put is readable until evicted.
func TestPropCacheGetAfterPut(t *testing.T) {
	f := func(ids []uint8) bool {
		c := NewBroadcastCache(0)
		for i, raw := range ids {
			id := string(rune('a' + raw%4))
			c.Put(id, int64(i), i)
			v, ok := c.Get(id, int64(i))
			if !ok || v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestGobMessageRoundTrip passes every message kind through encoding/gob —
// the reference codec_test.go compares the wire format against — and checks
// the fields survive, so a disagreement there points at the wire codec.
func TestGobMessageRoundTrip(t *testing.T) {
	gob.Register(map[string]int{})
	msgs := []Message{
		{Kind: KindHello, Hello: &Hello{Worker: 3}},
		{Kind: KindRunTask, Task: &Task{ID: 9, Op: "op", Args: map[string]int{"x": 1}, Partition: 2, Seed: 7, Dispatch: 5}},
		{Kind: KindTaskResult, Result: &Result{TaskID: 9, Worker: 3, Op: "op", Dispatch: 5, Payload: map[string]int{"y": 2}, ComputeTime: time.Millisecond, WaitTime: time.Microsecond}},
		{Kind: KindAck, Ack: &Ack{Seq: 4, Err: "boom"}},
		{Kind: KindFetch, Fetch: &FetchReq{Worker: 1, ID: "w", Version: 8}},
		{Kind: KindFetchReply, FetchReply: &FetchReply{ID: "w", Version: 8, Value: map[string]int{"z": 3}}},
		{Kind: KindBroadcastPush, Push: &BroadcastPush{ID: "w", Version: 2, Value: map[string]int{"q": 4}}},
		{Kind: KindShutdown},
	}
	for _, m := range msgs {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&m); err != nil {
			t.Fatalf("%v: encode: %v", m.Kind, err)
		}
		var got Message
		if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
			t.Fatalf("%v: decode: %v", m.Kind, err)
		}
		if got.Kind != m.Kind {
			t.Fatalf("kind %v → %v", m.Kind, got.Kind)
		}
		switch m.Kind {
		case KindRunTask:
			if got.Task.ID != 9 || got.Task.Op != "op" || got.Task.Args.(map[string]int)["x"] != 1 {
				t.Fatalf("task fields lost: %+v", got.Task)
			}
			if got.Task.Func() != nil {
				t.Fatal("closure crossed the wire")
			}
		case KindTaskResult:
			if got.Result.ComputeTime != time.Millisecond || got.Result.Payload.(map[string]int)["y"] != 2 {
				t.Fatalf("result fields lost: %+v", got.Result)
			}
		}
	}
}

func TestKindString(t *testing.T) {
	for k := KindHello; k <= KindShutdown; k++ {
		if k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if Kind(99).String() != "unknown" {
		t.Fatal("bogus kind has a name")
	}
}
