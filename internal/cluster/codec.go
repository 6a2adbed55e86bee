package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/la"
)

// Compact binary wire codec. Every TCP connection carries length-prefixed
// frames:
//
//	[4-byte big-endian frame length L][1-byte format version][L-1 bytes body]
//
// The body encodes one protocol message with varint integers, raw
// little-endian float64 payloads, and varint-delta coordinate indices. It is
// the only format: the version byte must be frameVersion, and a receiver
// rejects anything else. Payload values (task args, results, broadcast
// values) are the builtin types PutValue lists plus whatever was registered
// through RegisterPayloadCodec; a message carrying anything else — an
// unregistered payload type, or a task with an in-process func — fails to
// encode with ErrNotEncodable and nothing is written.
const (
	frameVersion byte = 1

	// maxFrame bounds a frame so a corrupted or hostile length prefix
	// cannot trigger an unbounded allocation.
	maxFrame = 1 << 30
)

// Builtin payload codes. Codes ≥ payloadRegistered are claimed through
// RegisterPayloadCodec.
const (
	payloadNil     byte = 0
	payloadVec     byte = 1
	payloadDelta   byte = 2
	payloadFloat64 byte = 3
	payloadInt64   byte = 4
	payloadString  byte = 5
	payloadBool    byte = 6
	payloadIntSlc  byte = 7

	payloadRegistered byte = 16
)

// ErrNotEncodable marks a message the wire format cannot carry: a task with
// an in-process func, or a payload type nobody registered a codec for. The
// fault is the message's, not the connection's — Cluster.Submit reports it
// without marking the worker down.
var ErrNotEncodable = errors.New("cluster: message has no wire encoding")

// payloadCodec is one registered payload type.
type payloadCodec struct {
	code byte
	enc  func(*BinWriter, any) error
	dec  func(*BinReader) (any, error)
}

var payloadRegistry = struct {
	mu     sync.RWMutex
	byType map[reflect.Type]*payloadCodec
	byCode map[byte]*payloadCodec
}{byType: map[reflect.Type]*payloadCodec{}, byCode: map[byte]*payloadCodec{}}

// RegisterPayloadCodec teaches the binary codec a payload type: prototype's
// concrete type is encoded by enc under the given code and decoded by dec.
// Codes below 16 are reserved for builtins; registering a taken code or
// type panics (registration is an init-time act). This is how a custom op's
// Args or result type becomes shippable over TCP.
func RegisterPayloadCodec(code byte, prototype any, enc func(*BinWriter, any) error, dec func(*BinReader) (any, error)) {
	if code < payloadRegistered {
		panic(fmt.Sprintf("cluster: payload code %d is reserved", code))
	}
	t := reflect.TypeOf(prototype)
	payloadRegistry.mu.Lock()
	defer payloadRegistry.mu.Unlock()
	if _, dup := payloadRegistry.byCode[code]; dup {
		panic(fmt.Sprintf("cluster: payload code %d registered twice", code))
	}
	if _, dup := payloadRegistry.byType[t]; dup {
		panic(fmt.Sprintf("cluster: payload type %v registered twice", t))
	}
	c := &payloadCodec{code: code, enc: enc, dec: dec}
	payloadRegistry.byCode[code] = c
	payloadRegistry.byType[t] = c
}

// BinWriter builds a binary frame. The zero value is ready to use;
// encodeFrame reuses the buffer across messages, so steady-state encoding
// performs no allocations once the buffer has grown to the working size.
type BinWriter struct{ buf []byte }

// Bytes returns the accumulated encoding (valid until the writer is reused).
func (w *BinWriter) Bytes() []byte { return w.buf }

// PutByte appends a raw byte.
func (w *BinWriter) PutByte(b byte) { w.buf = append(w.buf, b) }

// PutUvarint appends an unsigned varint.
func (w *BinWriter) PutUvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// PutVarint appends a zig-zag signed varint.
func (w *BinWriter) PutVarint(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// PutString appends a length-prefixed string.
func (w *BinWriter) PutString(s string) {
	w.PutUvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// PutFloat64 appends one little-endian float64.
func (w *BinWriter) PutFloat64(f float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(f))
}

// PutFloat64s appends a run of little-endian float64s (no length prefix):
// the buffer grows once and the values are written in place.
func (w *BinWriter) PutFloat64s(fs []float64) {
	off := len(w.buf)
	w.buf = slices.Grow(w.buf, 8*len(fs))[:off+8*len(fs)]
	dst := w.buf[off:]
	for i, f := range fs {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(f))
	}
}

// PutIndexDeltas appends strictly increasing coordinate indices as a first
// absolute value plus uvarint gaps — the compact index encoding of sparse
// payloads.
func (w *BinWriter) PutIndexDeltas(idx []int32) {
	prev := int32(0)
	for i, j := range idx {
		if i == 0 {
			w.PutUvarint(uint64(j))
		} else {
			w.PutUvarint(uint64(j - prev))
		}
		prev = j
	}
}

// PutValue appends a payload value: builtins directly, registered types via
// their codec. It returns ErrNotEncodable (wrapped) for anything else.
func (w *BinWriter) PutValue(v any) error {
	switch x := v.(type) {
	case nil:
		w.PutByte(payloadNil)
	case la.Vec:
		w.PutByte(payloadVec)
		w.PutUvarint(uint64(len(x)))
		w.PutFloat64s(x)
	case *la.DeltaVec:
		w.PutByte(payloadDelta)
		w.PutUvarint(uint64(x.N))
		w.PutUvarint(uint64(len(x.Idx)))
		w.PutIndexDeltas(x.Idx)
		w.PutFloat64s(x.Val)
	case float64:
		w.PutByte(payloadFloat64)
		w.PutFloat64(x)
	case int64:
		w.PutByte(payloadInt64)
		w.PutVarint(x)
	case int:
		w.PutByte(payloadInt64)
		w.PutVarint(int64(x))
	case string:
		w.PutByte(payloadString)
		w.PutString(x)
	case bool:
		b := byte(0)
		if x {
			b = 1
		}
		w.PutByte(payloadBool)
		w.PutByte(b)
	case []int:
		w.PutByte(payloadIntSlc)
		w.PutUvarint(uint64(len(x)))
		for _, e := range x {
			w.PutVarint(int64(e))
		}
	default:
		payloadRegistry.mu.RLock()
		c := payloadRegistry.byType[reflect.TypeOf(v)]
		payloadRegistry.mu.RUnlock()
		if c == nil {
			return fmt.Errorf("%w: payload type %T has no registered codec", ErrNotEncodable, v)
		}
		w.PutByte(c.code)
		return c.enc(w, v)
	}
	return nil
}

// BinReader decodes the body of a binary frame. Errors are sticky: after
// the first malformed field every subsequent read returns zero values, and
// Err reports the failure. All lengths are validated against the remaining
// input before any allocation, so a corrupt (or fuzzed) frame cannot
// trigger an outsized allocation.
type BinReader struct {
	buf []byte
	off int
	err error
}

// NewBinReader wraps a binary frame body.
func NewBinReader(b []byte) *BinReader { return &BinReader{buf: b} }

// Err returns the first decoding error, if any.
func (r *BinReader) Err() error { return r.err }

func (r *BinReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("cluster: bad frame: "+format, args...)
	}
}

// Byte reads one raw byte.
func (r *BinReader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail("truncated byte")
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Uvarint reads an unsigned varint.
func (r *BinReader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

// Varint reads a zig-zag signed varint.
func (r *BinReader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.off += n
	return v
}

// Length reads a uvarint and validates it as a count of elements each at
// least elemSize bytes wide against the remaining input.
func (r *BinReader) Length(elemSize int) int {
	v := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if elemSize < 1 {
		elemSize = 1
	}
	if v > uint64((len(r.buf)-r.off)/elemSize) {
		r.fail("length %d exceeds remaining input", v)
		return 0
	}
	return int(v)
}

// String reads a length-prefixed string.
func (r *BinReader) String() string {
	n := r.Length(1)
	if r.err != nil {
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

// Float64 reads one little-endian float64.
func (r *BinReader) Float64() float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.fail("truncated float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v
}

// Float64s fills dst with little-endian float64s.
func (r *BinReader) Float64s(dst []float64) {
	if r.err != nil {
		return
	}
	if 8*len(dst) > len(r.buf)-r.off {
		r.fail("truncated float64 run of %d", len(dst))
		return
	}
	src := r.buf[r.off : r.off+8*len(dst)]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	r.off += len(src)
}

// IndexDeltas reconstructs nnz strictly increasing indices below n from the
// delta encoding.
func (r *BinReader) IndexDeltas(dst []int32, n int) {
	cur := int64(-1)
	for i := range dst {
		gap := r.Uvarint()
		if r.err != nil {
			return
		}
		if i == 0 {
			cur = int64(gap)
		} else {
			if gap == 0 {
				r.fail("non-increasing sparse index")
				return
			}
			cur += int64(gap)
		}
		if cur >= int64(n) {
			r.fail("sparse index %d out of range [0,%d)", cur, n)
			return
		}
		dst[i] = int32(cur)
	}
}

// Value decodes a payload written by PutValue. Dense vectors come from the
// la pool (the driver recycles them after applying the update), sparse
// deltas from the delta pool.
func (r *BinReader) Value() (any, error) {
	code := r.Byte()
	if r.err != nil {
		return nil, r.err
	}
	switch code {
	case payloadNil:
		return nil, nil
	case payloadVec:
		n := r.Length(8)
		if r.err != nil {
			return nil, r.err
		}
		v := la.GetVec(n)
		r.Float64s(v)
		if r.err != nil {
			la.PutVec(v)
			return nil, r.err
		}
		return v, nil
	case payloadDelta:
		dim := int(r.Uvarint())
		nnz := r.Length(9) // ≥1 byte of index gap + 8 bytes of value each
		if r.err != nil {
			return nil, r.err
		}
		d := la.GetDelta(nnz, dim)
		r.IndexDeltas(d.Idx, dim)
		r.Float64s(d.Val)
		if r.err != nil {
			la.PutDelta(d)
			return nil, r.err
		}
		return d, nil
	case payloadFloat64:
		return r.Float64(), r.err
	case payloadInt64:
		return r.Varint(), r.err
	case payloadString:
		return r.String(), r.err
	case payloadBool:
		return r.Byte() == 1, r.err
	case payloadIntSlc:
		n := r.Length(1)
		if r.err != nil {
			return nil, r.err
		}
		s := make([]int, n)
		for i := range s {
			s[i] = int(r.Varint())
		}
		return s, r.err
	default:
		payloadRegistry.mu.RLock()
		c := payloadRegistry.byCode[code]
		payloadRegistry.mu.RUnlock()
		if c == nil {
			r.fail("unknown payload code %d", code)
			return nil, r.err
		}
		return c.dec(r)
	}
}

// errNoBody reports a message whose Kind-matching pointer field is unset.
func errNoBody(k Kind) error {
	return fmt.Errorf("cluster: %v message without its body", k)
}

// encodeMessage renders m into w.
func encodeMessage(w *BinWriter, m *Message) error {
	w.PutByte(byte(m.Kind))
	w.PutVarint(m.Seq)
	switch m.Kind {
	case KindHello:
		if m.Hello == nil {
			return errNoBody(m.Kind)
		}
		w.PutVarint(int64(m.Hello.Worker))
	case KindRunTask:
		t := m.Task
		if t == nil {
			return errNoBody(m.Kind)
		}
		if t.Func() != nil {
			return fmt.Errorf("%w: task %d carries an in-process func; only a registered op crosses a real transport", ErrNotEncodable, t.ID)
		}
		w.PutVarint(t.ID)
		w.PutString(t.Op)
		w.PutVarint(int64(t.Partition))
		w.PutVarint(t.Seed)
		w.PutVarint(t.Dispatch)
		return w.PutValue(t.Args)
	case KindTaskResult:
		r := m.Result
		if r == nil {
			return errNoBody(m.Kind)
		}
		w.PutVarint(r.TaskID)
		w.PutVarint(int64(r.Worker))
		w.PutString(r.Op)
		w.PutVarint(r.Dispatch)
		w.PutString(r.Err)
		w.PutVarint(int64(r.ComputeTime))
		w.PutVarint(int64(r.WaitTime))
		return w.PutValue(r.Payload)
	case KindInstallPartition:
		if m.Install == nil || m.Install.Part == nil || m.Install.Part.X == nil {
			return errNoBody(m.Kind)
		}
		return putPartition(w, m.Install.Part)
	case KindFetch:
		f := m.Fetch
		if f == nil {
			return errNoBody(m.Kind)
		}
		w.PutVarint(int64(f.Worker))
		w.PutString(f.ID)
		w.PutVarint(f.Version)
		w.PutVarint(f.Have)
	case KindFetchReply:
		f := m.FetchReply
		if f == nil {
			return errNoBody(m.Kind)
		}
		w.PutString(f.ID)
		w.PutVarint(f.Version)
		w.PutVarint(f.Base)
		w.PutString(f.Err)
		return w.PutValue(f.Value)
	case KindAck:
		if m.Ack == nil {
			return errNoBody(m.Kind)
		}
		w.PutVarint(m.Ack.Seq)
		w.PutString(m.Ack.Err)
	case KindShutdown:
		// kind and seq say it all
	default:
		return fmt.Errorf("cluster: kind %d has no encoding", m.Kind)
	}
	return nil
}

// putPartition appends a data partition: the header fields, then the CSR
// block as absolute row pointers, column indices and raw values, then the
// labels. The slice lengths are checked here so a malformed in-memory
// partition fails on the sending side, not as the receiver's decode error.
func putPartition(w *BinWriter, p *dataset.Partition) error {
	x := p.X
	if len(x.RowPtr) != x.NumRows+1 || len(x.ColIdx) != len(x.Val) || len(p.Y) != x.NumRows {
		return fmt.Errorf("cluster: partition %d is malformed: %d rows, %d row pointers, %d/%d nonzeros, %d labels",
			p.Index, x.NumRows, len(x.RowPtr), len(x.ColIdx), len(x.Val), len(p.Y))
	}
	w.PutString(p.Dataset)
	w.PutVarint(int64(p.Index))
	w.PutVarint(int64(p.RowLo))
	w.PutVarint(int64(p.RowHi))
	w.PutUvarint(uint64(x.NumCols))
	w.PutUvarint(uint64(x.NumRows))
	for _, v := range x.RowPtr {
		w.PutUvarint(uint64(v))
	}
	w.PutUvarint(uint64(len(x.Val)))
	for _, j := range x.ColIdx {
		w.PutUvarint(uint64(j))
	}
	w.PutFloat64s(x.Val)
	w.PutFloat64s(p.Y)
	return nil
}

// partition decodes putPartition's encoding. Every count is checked against
// the remaining input before its slice is allocated, and the CSR invariants
// the kernels index by without checks — row pointers starting at 0,
// non-decreasing and ending at nnz, column indices below NumCols, one label
// per row, RowHi−RowLo rows — are enforced here, at the wire boundary.
func (r *BinReader) partition() *dataset.Partition {
	p := &dataset.Partition{
		Dataset: r.String(),
		Index:   int(r.Varint()),
		RowLo:   int(r.Varint()),
		RowHi:   int(r.Varint()),
	}
	cols := r.Uvarint()
	if cols > math.MaxInt32 {
		r.fail("partition has %d columns", cols)
	}
	rows := r.Length(1) // a row pointer is ≥1 byte
	if r.err != nil {
		return nil
	}
	if p.RowLo < 0 || p.RowHi < p.RowLo || p.RowHi-p.RowLo != rows {
		r.fail("partition rows [%d,%d) do not span %d rows", p.RowLo, p.RowHi, rows)
		return nil
	}
	x := &la.CSR{NumRows: rows, NumCols: int(cols), RowPtr: make([]int64, rows+1)}
	prev := int64(0)
	for i := range x.RowPtr {
		v := int64(r.Uvarint()) // a value past MaxInt64 wraps negative and fails below
		if r.err != nil {
			return nil
		}
		if v < prev || (i == 0 && v != 0) {
			r.fail("row pointer %d = %d breaks CSR monotonicity", i, v)
			return nil
		}
		x.RowPtr[i], prev = v, v
	}
	nnz := r.Length(9) // ≥1 byte of column index + 8 bytes of value each
	if r.err == nil && int64(nnz) != prev {
		r.fail("partition declares %d nonzeros but row pointers end at %d", nnz, prev)
	}
	if r.err != nil {
		return nil
	}
	x.ColIdx = make([]int32, nnz)
	for k := range x.ColIdx {
		j := r.Uvarint()
		if r.err != nil {
			return nil
		}
		if j >= cols {
			r.fail("column index %d out of range [0,%d)", j, cols)
			return nil
		}
		x.ColIdx[k] = int32(j)
	}
	x.Val = make([]float64, nnz)
	r.Float64s(x.Val)
	p.Y = make(la.Vec, rows)
	r.Float64s(p.Y)
	if r.err != nil {
		return nil
	}
	p.X = x
	return p
}

// decodeMessage parses a frame body.
func decodeMessage(body []byte) (Message, error) {
	r := NewBinReader(body)
	m := Message{Kind: Kind(r.Byte()), Seq: r.Varint()}
	switch m.Kind {
	case KindHello:
		m.Hello = &Hello{Worker: int(r.Varint())}
	case KindRunTask:
		t := &Task{
			ID:        r.Varint(),
			Op:        r.String(),
			Partition: int(r.Varint()),
			Seed:      r.Varint(),
			Dispatch:  r.Varint(),
		}
		v, err := r.Value()
		if err != nil {
			return Message{}, err
		}
		t.Args = v
		m.Task = t
	case KindTaskResult:
		res := &Result{
			TaskID:      r.Varint(),
			Worker:      int(r.Varint()),
			Op:          r.String(),
			Dispatch:    r.Varint(),
			Err:         r.String(),
			ComputeTime: time.Duration(r.Varint()),
			WaitTime:    time.Duration(r.Varint()),
		}
		v, err := r.Value()
		if err != nil {
			return Message{}, err
		}
		res.Payload = v
		m.Result = res
	case KindInstallPartition:
		m.Install = &InstallPartition{Part: r.partition()}
	case KindFetch:
		m.Fetch = &FetchReq{Worker: int(r.Varint()), ID: r.String(), Version: r.Varint(), Have: r.Varint()}
	case KindFetchReply:
		f := &FetchReply{ID: r.String(), Version: r.Varint(), Base: r.Varint(), Err: r.String()}
		v, err := r.Value()
		if err != nil {
			return Message{}, err
		}
		f.Value = v
		m.FetchReply = f
	case KindAck:
		m.Ack = &Ack{Seq: r.Varint(), Err: r.String()}
	case KindShutdown:
	default:
		r.fail("kind %d has no decoding", m.Kind)
	}
	if err := r.Err(); err != nil {
		return Message{}, err
	}
	return m, nil
}

// EncodeFrame renders one message as a complete wire frame. The endpoint's
// Send path and the bench suites' bytes/task accounting both go through the
// same encoder. The bool parameter and result are vestigial — they selected
// and reported the frame format when a second one existed; the parameter is
// ignored and the result is true whenever err is nil. They stay only because
// benchmark/ (frozen for this change) calls this signature.
func EncodeFrame(m Message, _ bool) ([]byte, bool, error) {
	var w BinWriter
	frame, err := encodeFrame(&w, &m)
	return frame, err == nil, err
}

// encodeFrame renders [len][version][body] for m in w, replacing what w
// held: the body is encoded directly behind a reserved header whose length
// is filled in last, so a frame is written once. The result is w's buffer,
// valid until w is used again.
func encodeFrame(w *BinWriter, m *Message) ([]byte, error) {
	w.buf = append(w.buf[:0], 0, 0, 0, 0, frameVersion)
	if err := encodeMessage(w, m); err != nil {
		return nil, err
	}
	n := len(w.buf) - 4
	if n > maxFrame {
		return nil, fmt.Errorf("cluster: %v frame of %d bytes exceeds the %d-byte limit", m.Kind, n, maxFrame)
	}
	binary.BigEndian.PutUint32(w.buf, uint32(n))
	return w.buf, nil
}

// DecodeFrame parses one complete wire frame (length prefix included) back
// into a Message — the inverse of EncodeFrame, shared by tests and the
// decode fuzz target.
func DecodeFrame(frame []byte) (Message, error) {
	if len(frame) < 5 {
		return Message{}, errors.New("cluster: short frame")
	}
	l := uint32(frame[0])<<24 | uint32(frame[1])<<16 | uint32(frame[2])<<8 | uint32(frame[3])
	if l < 1 || l > maxFrame || int(l) != len(frame)-4 {
		return Message{}, fmt.Errorf("cluster: bad frame length %d for %d bytes", l, len(frame)-4)
	}
	return decodeFrameBody(frame[4], frame[5:])
}

func decodeFrameBody(version byte, body []byte) (Message, error) {
	if version != frameVersion {
		return Message{}, fmt.Errorf("cluster: unknown frame format %d", version)
	}
	return decodeMessage(body)
}
