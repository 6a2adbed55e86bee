package cluster

import (
	"bytes"
	"encoding/gob"
	"testing"
	"testing/quick"
	"time"
)

// TestPropCacheBounded checks the retention rule against a model under
// random interleavings of Put (at, above and below the newest), Retain and
// Release on two ids: after every step the newest version of an id and every
// retained version that was cached when retained are present, and after
// every Put the id holds nothing else — so the cache is bounded by 1 + the
// number of references, whatever the history.
func TestPropCacheBounded(t *testing.T) {
	f := func(ops []uint16) bool {
		c := NewBroadcastCache()
		type model struct {
			newest int64
			held   map[int64]bool
		}
		ids := map[string]*model{"a": {newest: -1, held: map[int64]bool{}}, "b": {newest: -1, held: map[int64]bool{}}}
		has := func(id string, ver int64) bool {
			c.mu.RLock()
			defer c.mu.RUnlock()
			e := c.byID[id]
			if e == nil {
				return false
			}
			_, ok := e.vals[ver]
			return ok
		}
		for _, op := range ops {
			id := "a"
			if op&1 == 1 {
				id = "b"
			}
			m := ids[id]
			ver := int64(op >> 4 % 16)
			switch op >> 1 & 7 {
			case 0, 1, 2, 3: // Put: above, at or below the newest as ver falls
				c.Put(id, ver, ver)
				if ver > m.newest {
					m.newest = ver
				}
				// exactly newest ∪ retained
				c.mu.RLock()
				for got := range c.byID[id].vals {
					if got != m.newest && !m.held[got] {
						c.mu.RUnlock()
						return false
					}
				}
				c.mu.RUnlock()
				if has(id, ver) != (ver == m.newest || m.held[ver]) {
					return false
				}
			case 4, 5: // Retain, as Record does: only a version just resolved
				if has(id, ver) {
					c.Retain(id, ver)
					m.held[ver] = true
				}
			default:
				c.Release(id, ver)
				delete(m.held, ver)
				if ver != m.newest && has(id, ver) {
					return false // released and not newest: gone at once
				}
			}
			for id, m := range ids {
				if m.newest >= 0 && !has(id, m.newest) {
					return false
				}
				for ver := range m.held {
					if !has(id, ver) {
						return false
					}
				}
				if lv, val, ok := c.Latest(id); m.newest >= 0 && (!ok || lv != m.newest || val != m.newest) {
					return false
				}
			}
		}
		// the counters agree with the maps
		n := 0
		for _, e := range c.byID {
			n += len(e.vals)
		}
		return c.Stats().Versions == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPropCacheGetAfterPut: any put is readable until evicted.
func TestPropCacheGetAfterPut(t *testing.T) {
	f := func(ids []uint8) bool {
		c := NewBroadcastCache()
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
