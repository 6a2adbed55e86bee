package cluster

import (
	"math"
	"math/rand"
	"net"
	"reflect"
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
			if got, err = applyPatch(rep, 7, base); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		if !bitsEqual(got, next) {
			t.Fatalf("trial %d (n=%d, base %d): rebuilt vector differs from the driver's", trial, n, rep.Base)
		}
		if !bitsEqual(base, keep) {
			t.Fatalf("trial %d: the base was written", trial)
		}
		if trial%4 == 0 && n > 2 && (rep.Base == 0 || rep.Value.(*la.DeltaVec).NNZ() != 0) {
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

// TestFetchPatchOverTCP drives the whole miss path over a socket: the first
// fetch of an id is dense, a small change goes as a patch, a change of every
// coordinate goes dense again, and a base the driver no longer has falls
// back to dense — each time rebuilding the driver's vector bit for bit and
// holding one version of the id on the worker.
func TestFetchPatchOverTCP(t *testing.T) {
	c := startTCPCluster(t, 1)
	rng := rand.New(rand.NewSource(14))
	var mu sync.Mutex
	store := map[int64]la.Vec{}
	c.SetFetchHandler(func(id string, ver int64) (any, error) {
		mu.Lock()
		defer mu.Unlock()
		v, ok := store[ver]
		if !ok {
			return nil, errTest("pruned")
		}
		return v, nil
	})
	cur := randVec(rng, 2000)
	patches, denses := fetchPatch.Value(), fetchDense.Value()
	for ver := int64(1); ver <= 6; ver++ {
		next := cur.Clone()
		wantPatch := true
		switch ver {
		case 1: // nothing held yet
			wantPatch = false
		case 3: // every coordinate moves
			for i := range next {
				next[i] *= 1.5
			}
			wantPatch = false
		case 5: // the base is gone from the driver
			next[7] = math.Copysign(0, -1)
			mu.Lock()
			delete(store, ver-1)
			mu.Unlock()
			wantPatch = false
		default:
			for k := 0; k < 40; k++ {
				next[rng.Intn(len(next))] = rng.NormFloat64()
			}
		}
		mu.Lock()
		store[ver] = next
		mu.Unlock()
		cur = next
		if err := c.Submit(0, &Task{ID: c.NextTaskID(), Op: "test.fetchBits", Args: ver}); err != nil {
			t.Fatal(err)
		}
		r := awaitResult(t, c)
		if r.Failed() {
			t.Fatalf("version %d: %s", ver, r.Err)
		}
		if !bitsEqual(r.Payload.(la.Vec), next) {
			t.Fatalf("version %d: the worker's vector differs from the driver's", ver)
		}
		p, d := fetchPatch.Value(), fetchDense.Value()
		if gotPatch := p > patches; gotPatch != wantPatch || (p-patches)+(d-denses) != 1 {
			t.Fatalf("version %d: patch replies +%d, dense +%d, want patch=%v", ver, p-patches, d-denses, wantPatch)
		}
		patches, denses = p, d
	}
}

type errTest string

func (e errTest) Error() string { return string(e) }

func init() {
	// returns the resolved vector itself, and fails unless it is the only
	// version the worker holds — checked here because the worker's Env
	// belongs to another goroutine
	RegisterOp("test.fetchBits", func(env *Env, t *Task) (any, error) {
		v, err := env.BroadcastValue("model", t.Args.(int64))
		if err != nil {
			return nil, err
		}
		if n := env.Cache().Stats().Versions; n != 1 {
			return nil, errTest("worker holds more than the newest version")
		}
		return v.(la.Vec).Clone(), nil
	})
}
