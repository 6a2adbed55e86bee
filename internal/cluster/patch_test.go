package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/la"
)

func bitsEqual(a, b la.Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// weirdFloat draws from the values a bitwise diff must not confuse: both
// zeros, infinities, and NaNs with distinct payloads.
func weirdFloat(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Float64frombits(0x7ff8000000000001 + uint64(rng.Intn(4))) // NaN payloads
	case 3:
		return math.Inf(1 - 2*rng.Intn(2))
	default:
		return rng.NormFloat64()
	}
}

// fetchReplyFor answers a fetch of next for a worker holding base at
// version have the way serveFetch does over a serialising endpoint, and
// returns what the worker's decoder hands it.
func fetchReplyFor(t *testing.T, base, next la.Vec, have int64) *FetchReply {
	t.Helper()
	rep := FetchReply{ID: "w", Version: have + 1, Value: next}
	if d := diffVec(base, next); d != nil {
		rep.Base, rep.Value = have, d
	}
	frame, _, err := EncodeFrame(Message{Kind: KindFetchReply, FetchReply: &rep}, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Base != 0 {
		dense, _, _ := EncodeFrame(Message{Kind: KindFetchReply, FetchReply: &FetchReply{ID: "w", Version: have + 1, Value: next}}, true)
		if len(frame) >= len(dense) {
			t.Fatalf("patch frame (%d B) not shorter than the dense one (%d B)", len(frame), len(dense))
		}
	}
	m, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	return m.FetchReply
}

// TestPatchRoundTripBitwise is the property the fetch path rests on:
// patch(base, diff(base, next)) ≡ next bit for bit — across -0.0, NaN
// payloads, all-equal and all-different pairs — the base is never written,
// and whichever of patch or dense goes out is the shorter frame.
func TestPatchRoundTripBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(200)
		base := make(la.Vec, n)
		for i := range base {
			base[i] = weirdFloat(rng)
		}
		next := base.Clone()
		switch trial % 4 {
		case 0: // all equal
		case 1: // all different
			for i := range next {
				next[i] = math.Float64frombits(math.Float64bits(next[i]) ^ 1)
			}
		default: // a random share changes, some to "equal-looking" values
			share := rng.Float64()
			for i := range next {
				if rng.Float64() < share {
					next[i] = weirdFloat(rng)
				}
			}
		}
		keep := base.Clone()
		rep := fetchReplyFor(t, base, next, 7)
		var got la.Vec
		if rep.Base == 0 {
			got = rep.Value.(la.Vec)
		} else {
			var err error
			if got, err = applyPatch(rep, 7, base, false); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		if !bitsEqual(got, next) {
			t.Fatalf("trial %d (n=%d, base %d): rebuilt vector differs from the driver's", trial, n, rep.Base)
		}
		if !bitsEqual(base, keep) {
			t.Fatalf("trial %d: the base was written", trial)
		}
		if trial%4 == 0 && n > 2 && (rep.Base == 0 || len(rep.Value.(*la.DeltaVec).Idx) != 0) {
			t.Fatalf("trial %d: equal vectors must go as an empty patch", trial)
		}
		if trial%4 == 1 && n > 0 && rep.Base != 0 {
			t.Fatalf("trial %d: all-different vectors must go dense", trial)
		}
	}
	if diffVec(la.Vec{1, 2}, la.Vec{1, 2, 3}) != nil {
		t.Fatal("vectors of different length must go dense")
	}
}

// rawPatchReply states a patch FetchReply field by field, so tests can
// write what the encoder refuses to.
type rawPatchReply struct {
	base     int64
	n        uint64
	idx      []uint64 // absolute indices; encoded as first + gaps, raw
	gaps     []uint64 // used instead of idx when set
	value    func(*BinWriter)
	replyVer int64
}

func (rp rawPatchReply) frame() []byte {
	var w BinWriter
	w.PutByte(byte(KindFetchReply))
	w.PutVarint(0) // seq
	w.PutString("w")
	w.PutVarint(rp.replyVer)
	w.PutVarint(rp.base)
	w.PutString("")
	if rp.value != nil {
		rp.value(&w)
	} else {
		gaps := rp.gaps
		if gaps == nil {
			prev := uint64(0)
			for i, j := range rp.idx {
				if i == 0 {
					gaps = append(gaps, j)
				} else {
					gaps = append(gaps, j-prev)
				}
				prev = j
			}
		}
		w.PutByte(payloadDelta)
		w.PutUvarint(rp.n)
		w.PutUvarint(uint64(len(gaps)))
		for _, g := range gaps {
			w.PutUvarint(g)
		}
		w.PutFloat64s(make([]float64, len(gaps)))
	}
	return wrapFrame(w.Bytes())
}

// badPatchReplies are replies to a fetch of w@4 by a worker that offered
// w@3 (8 coordinates), each broken in one place and keyed by what is wrong.
func badPatchReplies() map[string][]byte {
	good := rawPatchReply{base: 3, n: 8, idx: []uint64{1, 5}, replyVer: 4}
	out := map[string][]byte{}
	for name, breakIt := range map[string]func(*rawPatchReply){
		"index ≥ N":              func(rp *rawPatchReply) { rp.idx = []uint64{1, 8} },
		"non-increasing indices": func(rp *rawPatchReply) { rp.gaps = []uint64{5, 0} },
		"N ≠ len(base)":          func(rp *rawPatchReply) { rp.n = 9 },
		"Base ≠ Have":            func(rp *rawPatchReply) { rp.base = 2 },
		"Base with a dense value": func(rp *rawPatchReply) {
			rp.value = func(w *BinWriter) { _ = w.PutValue(la.Vec{1, 2, 3, 4, 5, 6, 7, 8}) }
		},
		"Base with a scalar": func(rp *rawPatchReply) {
			rp.value = func(w *BinWriter) { _ = w.PutValue(1.5) }
		},
	} {
		rp := good
		breakIt(&rp)
		out[name] = rp.frame()
	}
	return out
}

// pipeWorker is a worker whose server end the test plays by hand: frames
// written to srv reach the worker's receive loop verbatim.
func pipeWorker(t *testing.T) (w *Worker, srv net.Conn, srvEP *FramedEndpoint) {
	t.Helper()
	a, b := net.Pipe()
	w = NewWorker(0, NewFramedEndpoint(b), nil, 1)
	go w.recvLoop()
	t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
	return w, a, NewFramedEndpoint(a)
}

// TestBadPatchReplyFailsFetch: every malformed patch reply fails the fetch
// with an error — by refusing the frame or by refusing to apply it — and
// leaves the cached base untouched and the requested version uncached.
func TestBadPatchReplyFailsFetch(t *testing.T) {
	replies := badPatchReplies()
	replies["control: a good patch"] = rawPatchReply{base: 3, n: 8, idx: []uint64{1, 5}, replyVer: 4}.frame()
	for name, frame := range replies {
		t.Run(name, func(t *testing.T) {
			w, srv, srvEP := pipeWorker(t)
			base := la.Vec{1, 2, 3, 4, 5, 6, 7, 8}
			w.env.Cache().Put("w", 3, base)
			go func() {
				m, err := srvEP.Recv()
				if err != nil || m.Kind != KindFetch || m.Fetch.Have != 3 || m.Fetch.Version != 4 {
					t.Errorf("fetch request: %+v, %v", m.Fetch, err)
				}
				_, _ = srv.Write(frame)
			}()
			v, err := w.env.BroadcastValue("w", 4)
			if strings.HasPrefix(name, "control") {
				if err != nil || !bitsEqual(v.(la.Vec), la.Vec{1, 0, 3, 4, 5, 0, 7, 8}) {
					t.Fatalf("good patch: %v, %v", v, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("bad reply accepted: %v", v)
			}
			if _, ok := w.env.Cache().Get("w", 4); ok {
				t.Fatal("a refused reply was cached")
			}
			if got, ok := w.env.Cache().Get("w", 3); !ok || !bitsEqual(got.(la.Vec), la.Vec{1, 2, 3, 4, 5, 6, 7, 8}) {
				t.Fatalf("cached base corrupted: %v", got)
			}
		})
	}
}

// TestDecodeDoesNotAliasFrame pins what lets FramedEndpoint.Recv reuse its
// body buffer: a decoded Message owns all of its memory. Every kind is
// decoded, the frame it came from is overwritten, and the message must
// still equal a decode of the pristine frame.
func TestDecodeDoesNotAliasFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	msgs := []Message{
		{Kind: KindHello, Hello: &Hello{Worker: 3}},
		{Kind: KindRunTask, Task: &Task{ID: 9, Op: "test.tcpSum", Args: tcpArgs{Scale: 2}, Partition: 2, Seed: 7, Dispatch: 5}},
		{Kind: KindRunTask, Task: &Task{ID: 10, Op: "op", Args: []int{4, 5, 6}}},
		{Kind: KindRunTask, Task: &Task{ID: 11, Op: "op", Args: "a string argument"}},
		{Kind: KindTaskResult, Result: &Result{TaskID: 9, Worker: 3, Op: "opt.grad", Err: "boom", Payload: randVec(rng, 64)}},
		{Kind: KindTaskResult, Result: &Result{TaskID: 9, Payload: randDeltaVec(rng, 1000, 30)}},
		{Kind: KindInstallPartition, Seq: 1, Install: &InstallPartition{Part: tinyPartition(t, 1)}},
		{Kind: KindAck, Ack: &Ack{Seq: 4, Err: "boom"}},
		{Kind: KindFetch, Fetch: &FetchReq{Worker: 1, ID: "model", Version: 8, Have: 7}},
		{Kind: KindFetchReply, FetchReply: &FetchReply{ID: "model", Version: 8, Value: randVec(rng, 32)}},
		{Kind: KindFetchReply, FetchReply: &FetchReply{ID: "model", Version: 8, Base: 7, Value: randDeltaVec(rng, 32, 5)}},
		{Kind: KindFetchReply, FetchReply: &FetchReply{ID: "model", Version: 8, Err: "not found on driver"}},
	}
	for _, m := range msgs {
		frame, _, err := EncodeFrame(m, true)
		if err != nil {
			t.Fatalf("%v: %v", m.Kind, err)
		}
		want, err := DecodeFrame(append([]byte(nil), frame...))
		if err != nil {
			t.Fatalf("%v: %v", m.Kind, err)
		}
		got, err := DecodeFrame(frame)
		if err != nil {
			t.Fatalf("%v: %v", m.Kind, err)
		}
		for i := range frame {
			frame[i] = 0xA5
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: the decoded message changed when its frame was overwritten", m.Kind)
		}
	}
}

// TestCodecRoundTripAllocs pins the single-copy codec path on the two
// frames the TCP data path is made of: the dense model going out and the
// sparse result coming in. What is left is the reader, the Message's own
// struct, the id/op string and the interface box of a slice — nothing
// proportional to the payload.
func TestCodecRoundTripAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, tc := range []struct {
		name string
		m    Message
		max  float64
	}{
		{"dense 10k FetchReply", Message{Kind: KindFetchReply, FetchReply: &FetchReply{ID: "asgd.w", Version: 8, Value: randVec(rng, 10000)}}, 4},
		{"sparse TaskResult", Message{Kind: KindTaskResult, Result: &Result{TaskID: 1, Op: "opt.grad", Payload: randDeltaVec(rng, 10000, 300)}}, 3},
	} {
		var w BinWriter
		work := func() {
			frame, err := encodeFrame(&w, &tc.m)
			if err != nil {
				t.Fatal(err)
			}
			back, err := decodeFrameBody(frame[4], frame[5:])
			if err != nil {
				t.Fatal(err)
			}
			// hand the pooled payloads back, as the consumers do
			switch back.Kind {
			case KindFetchReply:
				la.PutVec(back.FetchReply.Value.(la.Vec))
			case KindTaskResult:
				la.PutDelta(back.Result.Payload.(*la.DeltaVec))
			}
		}
		work()
		if allocs := testing.AllocsPerRun(50, work); allocs > tc.max {
			t.Errorf("%s: %v allocations per round trip, want ≤ %v", tc.name, allocs, tc.max)
		}
	}
}

// TestFetchPatchOverTCP drives the whole miss path over a socket, one
// version of "model" after another, rebuilding the driver's vector bit for
// bit each time: a first fetch goes dense; a logged change goes as a patch
// of the logged coordinates, written into the worker's base; a change the
// log does not cover goes as a diff, or dense when every coordinate moves or
// the base is gone; a logged chain still patches after its base is gone. A
// retained base is patched in a copy and keeps its bits, and a fetch of a
// version older than the newest never writes to the newest.
func TestFetchPatchOverTCP(t *testing.T) {
	c := startTCPCluster(t, 1)
	rng := rand.New(rand.NewSource(14))
	type stored struct {
		v       la.Vec
		changed []int32 // logged against the version before; nil = not logged
	}
	var mu sync.Mutex
	store := map[int64]stored{}
	c.SetFetchHandler(func(id string, ver, have int64) (FetchAnswer, error) {
		mu.Lock()
		defer mu.Unlock()
		s, ok := store[ver]
		if !ok {
			return FetchAnswer{}, errTest("pruned")
		}
		if s.changed != nil && have == ver-1 && PatchShorter(len(s.v), s.changed) {
			// the driver store's answer from its log: the logged values
			p := la.GetDelta(len(s.changed), len(s.v))
			for k, j := range s.changed {
				p.Idx[k], p.Val[k] = j, s.v[j]
			}
			return FetchAnswer{Patch: p}, nil
		}
		ans := FetchAnswer{Value: s.v}
		if b, ok := store[have]; ok {
			ans.Base = b.v
		}
		return ans, nil
	})
	run := func(op string, args []int) la.Vec {
		t.Helper()
		if err := c.Submit(0, &Task{ID: c.NextTaskID(), Op: op, Args: args}); err != nil {
			t.Fatal(err)
		}
		r := awaitResult(t, c)
		if r.Failed() {
			t.Fatalf("%s %v: %s", op, args, r.Err)
		}
		v, _ := r.Payload.(la.Vec)
		return v
	}
	cur := randVec(rng, 2000)
	counts := func() [3]int64 { return [3]int64{fetchPatch.Value(), fetchDiff.Value(), fetchDense.Value()} }
	last := counts()
	ver := int64(0)
	for _, step := range []struct {
		name                 string
		change               string // "some" coordinates, "all" of them, or "none"
		logged               bool
		dropPrev, retainPrev bool
		reply                int // index into counts: 0 patch, 1 diff, 2 dense
		inPlace              bool
	}{
		{name: "first fetch", change: "none", reply: 2},
		{name: "logged change", change: "some", logged: true, reply: 0, inPlace: true},
		{name: "every coordinate moves", change: "all", reply: 2},
		{name: "retained base", change: "some", logged: true, retainPrev: true, reply: 0},
		{name: "unlogged change", change: "some", reply: 1, inPlace: true},
		{name: "base gone, unlogged", change: "some", dropPrev: true, reply: 2},
		{name: "base gone, logged", change: "some", logged: true, dropPrev: true, reply: 0, inPlace: true},
	} {
		ver++
		next, changed := cur.Clone(), []int32{}
		switch step.change {
		case "all":
			for i := range next {
				next[i] *= 1.5
			}
		case "some":
			for _, j := range rng.Perm(len(next))[:40] {
				changed = append(changed, int32(j))
			}
			slices.Sort(changed)
			for _, j := range changed[:30] { // the log may list a few unchanged ones
				next[j] = rng.NormFloat64()
			}
			next[changed[0]] = math.Copysign(0, -1)
		}
		s := stored{v: next}
		if step.logged {
			s.changed = changed
		}
		mu.Lock()
		store[ver] = s
		if step.dropPrev {
			delete(store, ver-1)
		}
		mu.Unlock()
		if step.retainPrev {
			run("test.retain", []int{int(ver - 1)})
		}
		mode := 0
		if step.inPlace {
			mode = 1
		}
		if got := run("test.fetchBits", []int{int(ver), mode}); !bitsEqual(got, next) {
			t.Fatalf("%s: the worker's vector differs from the driver's", step.name)
		}
		now := counts()
		want := last
		want[step.reply]++
		if now != want {
			t.Fatalf("%s: replies patch/diff/dense went %v → %v, want %v", step.name, last, now, want)
		}
		last = now
		if step.retainPrev {
			if got := run("test.cachedBits", []int{int(ver - 1)}); !bitsEqual(got, cur) {
				t.Fatalf("%s: the retained base lost its bits", step.name)
			}
		}
		cur = next
	}
	// an older version (evicted from the worker, still on the driver) goes
	// as a diff against the newest, applied to a copy
	mu.Lock()
	old := store[4].v
	mu.Unlock()
	if got := run("test.fetchBits", []int{4, 0}); !bitsEqual(got, old) {
		t.Fatal("an older version: the worker's vector differs from the driver's")
	}
	if now := counts(); now[1] != last[1]+1 {
		t.Fatalf("an older version: replies patch/diff/dense now %v, was %v, want one more diff", now, last)
	}
	if got := run("test.cachedBits", []int{int(ver)}); !bitsEqual(got, cur) {
		t.Fatal("fetching an older version wrote to the newest")
	}
}

type errTest string

func (e errTest) Error() string { return string(e) }

func init() {
	// Args [version, mode] resolves "model"@version and returns a copy.
	// mode 1 requires the value to reuse the memory of the newest version
	// cached before (patched in place); mode 0 forbids it. The worker must
	// hold only the newest version plus the ones it retains. Checked here
	// because the worker's Env belongs to another goroutine.
	RegisterOp("test.fetchBits", func(env *Env, t *Task) (any, error) {
		args := t.Args.([]int)
		_, prev, _ := env.Cache().Latest("model")
		v, err := env.BroadcastValue("model", int64(args[0]))
		if err != nil {
			return nil, err
		}
		p, _ := prev.(la.Vec)
		if inPlace := len(p) > 0 && &p[0] == &v.(la.Vec)[0]; inPlace != (args[1] == 1) {
			return nil, errTest(fmt.Sprintf("patched in place: %v, want %v", inPlace, args[1] == 1))
		}
		if st := env.Cache().Stats(); st.Versions != 1+st.Retained {
			return nil, errTest("worker holds more than the newest and the retained versions")
		}
		return v.(la.Vec).Clone(), nil
	})
	RegisterOp("test.retain", func(env *Env, t *Task) (any, error) {
		env.Cache().Retain("model", int64(t.Args.([]int)[0]))
		return nil, nil
	})
	// returns a copy of a cached version without fetching it
	RegisterOp("test.cachedBits", func(env *Env, t *Task) (any, error) {
		v, ok := env.Cache().Get("model", int64(t.Args.([]int)[0]))
		if !ok {
			return nil, errTest("not cached")
		}
		return v.(la.Vec).Clone(), nil
	})
}
