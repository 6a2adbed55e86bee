package cluster

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/la"
)

// encoding/gob is the reference the codec is checked against: a message
// must decode from its wire frame to what a gob round trip of the same
// value yields. Production code has no gob path; these are the payload
// types the reference needs to see behind an interface.
func init() {
	gob.Register(la.Vec{})
	gob.Register(&la.DeltaVec{})
}

// gobRoundTrip passes m through the reference codec, returning the decoded
// copy and the encoded size.
func gobRoundTrip(t *testing.T, m Message) (Message, int) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&m); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	n := buf.Len()
	var back Message
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatalf("gob decode: %v", err)
	}
	return back, n
}

// payloadEqual compares decoded payloads semantically: dense and sparse
// vectors by value (nil and empty are the same), everything else by
// DeepEqual. Gob and the binary codec legitimately differ on nil-vs-empty
// slices, which is invisible to every consumer.
func payloadEqual(a, b any) bool {
	switch x := a.(type) {
	case la.Vec:
		y, ok := b.(la.Vec)
		return ok && la.Equal(x, y, 0)
	case *la.DeltaVec:
		y, ok := b.(*la.DeltaVec)
		if !ok || x.N != y.N || len(x.Idx) != len(y.Idx) {
			return false
		}
		for k := range x.Idx {
			if x.Idx[k] != y.Idx[k] || x.Val[k] != y.Val[k] {
				return false
			}
		}
		return true
	default:
		return reflect.DeepEqual(a, b)
	}
}

// roundTrip encodes m as a wire frame, decodes it, and checks the decoding
// agrees with both the original and the gob reference round trip. It
// returns the frame size and the reference's encoded size.
func roundTrip(t *testing.T, m Message) (frameBytes, gobBytes int) {
	t.Helper()
	frame, _, err := EncodeFrame(m, true)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	wire, err := DecodeFrame(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	ref, gobBytes := gobRoundTrip(t, m)
	check := func(name string, back, m Message) {
		if back.Kind != m.Kind || back.Seq != m.Seq {
			t.Fatalf("%s: kind/seq (%v,%d) != (%v,%d)", name, back.Kind, back.Seq, m.Kind, m.Seq)
		}
		switch m.Kind {
		case KindTaskResult:
			r, o := back.Result, m.Result
			if r.TaskID != o.TaskID || r.Worker != o.Worker || r.Op != o.Op ||
				r.Dispatch != o.Dispatch || r.Err != o.Err ||
				r.ComputeTime != o.ComputeTime || r.WaitTime != o.WaitTime {
				t.Fatalf("%s: result fields differ: %+v vs %+v", name, r, o)
			}
			if !payloadEqual(o.Payload, r.Payload) {
				t.Fatalf("%s: payload differs", name)
			}
		case KindRunTask:
			tk, o := back.Task, m.Task
			if tk.ID != o.ID || tk.Op != o.Op || tk.Partition != o.Partition ||
				tk.Seed != o.Seed || tk.Dispatch != o.Dispatch || !payloadEqual(o.Args, tk.Args) {
				t.Fatalf("%s: task differs: %+v vs %+v", name, tk, o)
			}
		case KindFetchReply:
			if back.FetchReply.ID != m.FetchReply.ID || back.FetchReply.Version != m.FetchReply.Version ||
				back.FetchReply.Err != m.FetchReply.Err || !payloadEqual(m.FetchReply.Value, back.FetchReply.Value) {
				t.Fatalf("%s: fetch reply differs", name)
			}
		case KindInstallPartition:
			if !partitionEqual(back.Install.Part, m.Install.Part) {
				t.Fatalf("%s: partition differs", name)
			}
		case KindHello:
			if !reflect.DeepEqual(back.Hello, m.Hello) {
				t.Fatalf("%s: hello differs", name)
			}
		case KindFetch:
			if !reflect.DeepEqual(back.Fetch, m.Fetch) {
				t.Fatalf("%s: fetch differs", name)
			}
		case KindAck:
			if !reflect.DeepEqual(back.Ack, m.Ack) {
				t.Fatalf("%s: ack differs", name)
			}
		}
	}
	check("wire vs original", wire, m)
	check("wire vs gob reference", wire, ref)
	return len(frame), gobBytes
}

// partitionEqual compares partitions by value, nil and empty slices alike.
func partitionEqual(a, b *dataset.Partition) bool {
	if a.Dataset != b.Dataset || a.Index != b.Index || a.RowLo != b.RowLo || a.RowHi != b.RowHi ||
		a.X.NumRows != b.X.NumRows || a.X.NumCols != b.X.NumCols ||
		len(a.X.RowPtr) != len(b.X.RowPtr) || len(a.X.ColIdx) != len(b.X.ColIdx) {
		return false
	}
	for i := range a.X.RowPtr {
		if a.X.RowPtr[i] != b.X.RowPtr[i] {
			return false
		}
	}
	for k := range a.X.ColIdx {
		if a.X.ColIdx[k] != b.X.ColIdx[k] {
			return false
		}
	}
	return la.Equal(a.X.Val, b.X.Val, 0) && la.Equal(a.Y, b.Y, 0)
}

func randVec(rng *rand.Rand, n int) la.Vec {
	v := la.NewVec(n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func randDeltaVec(rng *rand.Rand, n, nnz int) *la.DeltaVec {
	seen := map[int32]bool{}
	for len(seen) < nnz {
		seen[int32(rng.Intn(n))] = true
	}
	d := &la.DeltaVec{N: n}
	for j := int32(0); int(j) < n && len(d.Idx) < nnz; j++ {
		if seen[j] {
			d.Idx = append(d.Idx, j)
			d.Val = append(d.Val, rng.NormFloat64())
		}
	}
	return d
}

func TestCodecResultRoundTripDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 3, 100, 4096, 100_000} {
		m := Message{Kind: KindTaskResult, Result: &Result{
			TaskID: rng.Int63(), Worker: rng.Intn(32), Op: "opt.grad",
			Dispatch: rng.Int63(), Payload: randVec(rng, n),
			ComputeTime: time.Duration(rng.Int63n(1e9)), WaitTime: time.Duration(rng.Int63n(1e6)),
		}}
		frameB, gobB := roundTrip(t, m)
		if n >= 100 && frameB >= gobB {
			t.Errorf("n=%d: wire frame (%dB) not smaller than gob (%dB)", n, frameB, gobB)
		}
	}
}

func TestCodecResultRoundTripSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cases := []struct{ n, nnz int }{{10, 0}, {10, 3}, {1000, 50}, {1 << 20, 100}, {1 << 20, 20000}}
	for _, c := range cases {
		m := Message{Kind: KindTaskResult, Result: &Result{
			TaskID: 7, Worker: 2, Payload: randDeltaVec(rng, c.n, c.nnz),
		}}
		roundTrip(t, m)
	}
}

func TestCodecSpecialFloats(t *testing.T) {
	v := la.Vec{math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	roundTrip(t, Message{Kind: KindFetchReply, FetchReply: &FetchReply{ID: "w", Version: 3, Value: v}})
	// NaN defeats == comparison; check it survives the binary trip by hand
	frame, _, err := EncodeFrame(Message{Kind: KindFetchReply, FetchReply: &FetchReply{ID: "w", Version: 1, Value: la.Vec{math.NaN()}}}, true)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	got := back.FetchReply.Value.(la.Vec)
	if len(got) != 1 || !math.IsNaN(got[0]) {
		t.Fatalf("NaN did not survive: %v", got)
	}
}

func TestCodecControlMessages(t *testing.T) {
	msgs := []Message{
		{Kind: KindHello, Hello: &Hello{Worker: 4}},
		{Kind: KindFetch, Fetch: &FetchReq{Worker: 1, ID: "model", Version: 42}},
		{Kind: KindAck, Seq: 9, Ack: &Ack{Seq: 9, Err: "boom"}},
		{Kind: KindShutdown},
		{Kind: KindRunTask, Task: &Task{ID: 5, Op: "opt.grad", Partition: -1, Seed: -77, Dispatch: 12}},
	}
	for _, m := range msgs {
		roundTrip(t, m)
	}
}

// rawInstall is a partition-install frame stated field by field, so tests
// can write shapes the encoder itself refuses to produce. goodInstall is a
// valid 2-row × 4-col CSR with 3 nonzeros at global rows [10,12).
type rawInstall struct {
	rowLo, rowHi int64
	rows, cols   uint64
	rowPtr       []uint64
	nnz          uint64
	colIdx       []uint64
	floats       int // values then labels
}

func goodInstall() rawInstall {
	return rawInstall{rowLo: 10, rowHi: 12, rows: 2, cols: 4,
		rowPtr: []uint64{0, 1, 3}, nnz: 3, colIdx: []uint64{0, 1, 3}, floats: 3 + 2}
}

// frame renders the install as a complete wire frame.
func (ri rawInstall) frame() []byte {
	var w BinWriter
	w.PutByte(byte(KindInstallPartition))
	w.PutVarint(7) // seq
	w.PutString("ds")
	w.PutVarint(3) // partition index
	w.PutVarint(ri.rowLo)
	w.PutVarint(ri.rowHi)
	w.PutUvarint(ri.cols)
	w.PutUvarint(ri.rows)
	for _, v := range ri.rowPtr {
		w.PutUvarint(v)
	}
	w.PutUvarint(ri.nnz)
	for _, j := range ri.colIdx {
		w.PutUvarint(j)
	}
	w.PutFloat64s(make([]float64, ri.floats))
	return wrapFrame(w.Bytes())
}

// wrapFrame puts the length prefix and format byte in front of a hand-built
// frame body.
func wrapFrame(body []byte) []byte {
	n := uint32(len(body) + 1)
	return append([]byte{byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n), frameVersion}, body...)
}

// badInstallFrames are partition installs a decoder must refuse, keyed by
// the fragment its error has to name: goodInstall broken in one place each.
func badInstallFrames() map[string][]byte {
	out := map[string][]byte{}
	for want, breakIt := range map[string]func(*rawInstall){
		"truncated":           func(ri *rawInstall) { ri.floats-- },
		"monotonicity":        func(ri *rawInstall) { ri.rowPtr = []uint64{0, 3, 1} },
		"row pointer 0":       func(ri *rawInstall) { ri.rowPtr = []uint64{1, 1, 3} },
		"out of range":        func(ri *rawInstall) { ri.colIdx = []uint64{0, 4, 3} },
		"row pointers end at": func(ri *rawInstall) { ri.rowPtr = []uint64{0, 1, 2} },
		"do not span":         func(ri *rawInstall) { ri.rowHi++ },
		// a count far past the frame must fail as a count, before any slice
		// of that size exists
		"exceeds remaining": func(ri *rawInstall) { ri.rows, ri.rowHi = 1<<40, ri.rowLo+1<<40 },
	} {
		ri := goodInstall()
		breakIt(&ri)
		out[want] = ri.frame()
	}
	return out
}

// TestCodecInstallRoundTrip: a partition install crosses the wire in the
// binary format and decodes to the same CSR block and labels; malformed
// installs are refused with an error naming the broken invariant.
func TestCodecInstallRoundTrip(t *testing.T) {
	p := tinyPartition(t, 3)
	roundTrip(t, Message{Kind: KindInstallPartition, Seq: 3, Install: &InstallPartition{Part: p}})

	if _, err := DecodeFrame(goodInstall().frame()); err != nil {
		t.Fatalf("hand-built valid install refused: %v", err)
	}
	for want, frame := range badInstallFrames() {
		_, err := DecodeFrame(frame)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("bad install %q: err = %v", want, err)
		}
	}

	// the encoder refuses what it cannot state: no partition, or slices
	// that disagree with the declared shape
	for name, part := range map[string]*dataset.Partition{
		"nil":       nil,
		"no matrix": {Index: 1},
		"short y":   {Index: 1, RowHi: p.NumRows(), X: p.X, Y: p.Y[:1]},
	} {
		if _, _, err := EncodeFrame(Message{Kind: KindInstallPartition, Install: &InstallPartition{Part: part}}, true); err == nil {
			t.Errorf("install with %s partition encoded", name)
		}
	}
}

// TestFrameVersionChecked: the format byte is a version check — anything
// but frameVersion (the retired gob format 0 included) is refused.
func TestFrameVersionChecked(t *testing.T) {
	frame, _, err := EncodeFrame(Message{Kind: KindShutdown}, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []byte{0, 2, 255} {
		frame[4] = v
		if _, err := DecodeFrame(frame); err == nil {
			t.Errorf("frame format %d accepted", v)
		}
	}
}

// retiredKindFrame is an eager broadcast push as it would have to look on
// the wire now: kinds are numbered by position, so retiring the push left
// the byte after KindShutdown's unassigned, and this is an id, a version and
// a dense value behind that byte.
func retiredKindFrame() []byte {
	var w BinWriter
	w.PutByte(byte(KindShutdown) + 1)
	w.PutVarint(0) // seq
	w.PutString("w")
	w.PutVarint(3)
	_ = w.PutValue(la.Vec{1, 2}) // a builtin payload always encodes
	return wrapFrame(w.buf)
}

// TestRetiredKindRefused: the protocol has no kind past KindShutdown, so a
// frame carrying one is unknown input and neither side can send it.
func TestRetiredKindRefused(t *testing.T) {
	if _, err := DecodeFrame(retiredKindFrame()); err == nil || !strings.Contains(err.Error(), "no decoding") {
		t.Fatalf("retired kind decoded: err = %v", err)
	}
	if _, _, err := EncodeFrame(Message{Kind: KindShutdown + 1}, true); err == nil {
		t.Fatal("retired kind encoded")
	}
}

// TestEncodeRefusesFuncTask: a task carrying an in-process func, or args of
// a type without a codec, fails to encode with ErrNotEncodable.
func TestEncodeRefusesFuncTask(t *testing.T) {
	fn := &Task{ID: 1}
	fn.SetFunc(func(*Env, *Task) (any, error) { return nil, nil })
	for name, task := range map[string]*Task{
		"func":             fn,
		"unregistered arg": {ID: 2, Op: "op", Args: struct{ X int }{1}},
	} {
		_, _, err := EncodeFrame(Message{Kind: KindRunTask, Task: task}, true)
		if !errors.Is(err, ErrNotEncodable) {
			t.Errorf("%s task: err = %v, want ErrNotEncodable", name, err)
		}
	}
}

// TestCodecEncodeSteadyStateAllocs: framing a task result through the
// reusable writer is allocation-free once the buffer has grown.
func TestCodecEncodeSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := Message{Kind: KindTaskResult, Result: &Result{
		TaskID: 1, Worker: 0, Payload: randDeltaVec(rng, 10000, 200),
	}}
	var w BinWriter
	work := func() {
		if _, err := encodeFrame(&w, &m); err != nil {
			t.Fatal(err)
		}
	}
	work()
	if allocs := testing.AllocsPerRun(100, work); allocs > 0 {
		t.Errorf("binary encode allocates %v per message, want 0", allocs)
	}
}

// FuzzDecodeFrame hardens the wire decoder: arbitrary bytes must never
// panic or over-allocate, every frame the encoder produces must decode, a
// partition that does decode satisfies the CSR invariants the kernels
// index by, and a patch reply that does decode either applies cleanly to
// the base it names or is refused — without ever writing the base.
func FuzzDecodeFrame(f *testing.F) {
	rng := rand.New(rand.NewSource(4))
	seedMsgs := []Message{
		{Kind: KindTaskResult, Result: &Result{TaskID: 3, Payload: randVec(rng, 16)}},
		{Kind: KindTaskResult, Result: &Result{TaskID: 4, Payload: randDeltaVec(rng, 1000, 20)}},
		{Kind: KindHello, Hello: &Hello{Worker: 0}},
		{Kind: KindFetch, Fetch: &FetchReq{Worker: 2, ID: "m", Version: 4, Have: 3}},
		{Kind: KindFetchReply, FetchReply: &FetchReply{ID: "m", Version: 4, Base: 3, Value: randDeltaVec(rng, 8, 2)}},
		{Kind: KindShutdown},
		{Kind: KindInstallPartition, Seq: 1, Install: &InstallPartition{Part: tinyPartition(f, 0)}},
	}
	for _, m := range seedMsgs {
		frame, _, err := EncodeFrame(m, true)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte{0, 0, 0, 2, frameVersion, byte(KindTaskResult)})
	f.Add(retiredKindFrame())
	for _, frame := range badInstallFrames() {
		f.Add(frame)
	}
	for _, frame := range badPatchReplies() {
		f.Add(frame)
	}
	for _, frame := range ExtraFuzzSeeds {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeFrame(data) // must not panic
		if err == nil && m.Kind == KindFetchReply && m.FetchReply.Base != 0 {
			base := la.Vec{1, 2, 3, 4, 5, 6, 7, 8}
			v, err := applyPatch(m.FetchReply, 3, base)
			if err == nil && len(v) != len(base) {
				t.Fatalf("patch produced %d coordinates from a base of %d", len(v), len(base))
			}
			if !bitsEqual(base, la.Vec{1, 2, 3, 4, 5, 6, 7, 8}) {
				t.Fatal("applying a patch wrote its base")
			}
			return
		}
		if err != nil || m.Kind != KindInstallPartition {
			return
		}
		p := m.Install.Part
		x := p.X
		// every slice was paid for by frame bytes: nothing allocated past it
		if len(x.RowPtr) > len(data) || len(x.ColIdx) > len(data) || len(p.Y) > len(data) {
			t.Fatalf("decoded %d/%d/%d entries from a %d-byte frame", len(x.RowPtr), len(x.ColIdx), len(p.Y), len(data))
		}
		if len(x.RowPtr) != x.NumRows+1 || x.RowPtr[0] != 0 || x.RowPtr[x.NumRows] != int64(len(x.Val)) ||
			len(x.ColIdx) != len(x.Val) || len(p.Y) != x.NumRows || p.NumRows() != x.NumRows {
			t.Fatalf("decoded partition breaks its shape: %+v", p)
		}
		for i := 0; i < x.NumRows; i++ {
			if x.RowPtr[i+1] < x.RowPtr[i] {
				t.Fatalf("row pointers decrease at %d", i)
			}
		}
		for _, j := range x.ColIdx {
			if j < 0 || int(j) >= x.NumCols {
				t.Fatalf("column index %d outside [0,%d)", j, x.NumCols)
			}
		}
	})
}
