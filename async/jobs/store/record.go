package store

import (
	"fmt"
	"hash/crc32"

	"repro/internal/cluster"
)

// Type discriminates the job lifecycle transitions a Record can carry.
type Type byte

// One record type per lifecycle transition. TypeSubmitted opens a job's
// history (and carries its spec); TypeCheckpointed marks a durable spill
// keyed by DispatchSeq; the terminal types close it. The lease types
// (claimed/renewed/released) carry job ownership for multi-replica stores:
// Claimed opens an ownership epoch, Renewed extends its expiry, Released
// (or any terminal record) ends it.
const (
	TypeSubmitted Type = iota + 1
	TypeDispatched
	TypeCheckpointed
	TypePreempted
	TypeDone
	TypeFailed
	TypeCanceled
	TypeClaimed
	TypeRenewed
	TypeReleased
)

var typeNames = map[Type]string{
	TypeSubmitted:    "submitted",
	TypeDispatched:   "dispatched",
	TypeCheckpointed: "checkpointed",
	TypePreempted:    "preempted",
	TypeDone:         "done",
	TypeFailed:       "failed",
	TypeCanceled:     "canceled",
	TypeClaimed:      "claimed",
	TypeRenewed:      "renewed",
	TypeReleased:     "released",
}

func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("type(%d)", byte(t))
}

// Terminal reports whether the record closes a job's history.
func (t Type) Terminal() bool {
	return t == TypeDone || t == TypeFailed || t == TypeCanceled
}

// Record is one job lifecycle transition. Fields beyond Type/Job/Time are
// meaningful per type: JobSeq and Spec ride submitted records, Updates and
// DispatchSeq ride checkpointed/preempted records, Detail and the final
// error ride terminal records. Unused fields encode as their zero values.
type Record struct {
	// Seq is the record's position in the log, assigned by Append and
	// restored by Replay. It restarts at 1 after a compaction.
	Seq uint64
	// Type is the transition.
	Type Type
	// Job is the scheduler's job ID.
	Job string
	// Time is the transition wall time (unix nanoseconds); replay uses it
	// to restore queue/retention ordering and SLO deadlines.
	Time int64

	// JobSeq is the scheduler's submission ordinal (TypeSubmitted). On a
	// TypePreempted record written by a compaction it is the job's
	// preemption count so far (see JobState.Apply); live ones leave it 0.
	JobSeq int64
	// Spec is the JSON-encoded job spec (TypeSubmitted).
	Spec []byte

	// Updates is the model-update clock at the transition.
	Updates int64
	// DispatchSeq keys the spilled checkpoint file (TypeCheckpointed,
	// TypePreempted).
	DispatchSeq int64

	// Detail carries the failure/cancellation reason (terminal types).
	Detail string
	// FinalError is the trace's final suboptimality when HasFinal
	// (TypeDone).
	FinalError float64
	HasFinal   bool

	// Lease fields (format v2). Owner names the replica holding (or
	// claiming) the job; Epoch is the fencing token, strictly increasing
	// per job across claims; ExpiresAt is the lease deadline in unix
	// nanoseconds. On lifecycle records (dispatched, checkpointed,
	// preempted, terminal) a non-empty Owner asserts ownership: the store
	// rejects the append with ErrFenced unless (Owner, Epoch) matches the
	// job's live lease.
	Owner     string
	Epoch     int64
	ExpiresAt int64
}

// Frame format constants. The record frame mirrors the wire codec's
// [u32 len][format][body] layout with a trailing CRC-32 so a torn or
// bit-flipped append is detected instead of replayed.
const (
	// recFormatBin is the pre-lease record body (PR 6); decode keeps
	// accepting it so logs written before the lease schema still replay.
	recFormatBin byte = 1
	// recFormatBin2 appends the lease fields (Owner, Epoch, ExpiresAt) to
	// the body; every new append writes this format.
	recFormatBin2 byte = 2

	// maxRecord bounds one record frame so a corrupt length prefix cannot
	// trigger an unbounded allocation during replay. Specs are small
	// JSON documents; 16 MiB is orders of magnitude of headroom.
	maxRecord = 16 << 20
)

// walMagic opens every log file.
var walMagic = []byte("AWL1")

// encode appends the record's complete frame to dst:
// [u32 len][format][body][crc32(format+body)].
func (r *Record) encode(dst []byte) []byte {
	var bw cluster.BinWriter
	bw.PutUvarint(r.Seq)
	bw.PutByte(byte(r.Type))
	bw.PutString(r.Job)
	bw.PutVarint(r.Time)
	bw.PutVarint(r.JobSeq)
	bw.PutString(string(r.Spec))
	bw.PutVarint(r.Updates)
	bw.PutVarint(r.DispatchSeq)
	bw.PutString(r.Detail)
	hf := byte(0)
	if r.HasFinal {
		hf = 1
	}
	bw.PutByte(hf)
	bw.PutFloat64(r.FinalError)
	bw.PutString(r.Owner)
	bw.PutVarint(r.Epoch)
	bw.PutVarint(r.ExpiresAt)
	body := bw.Bytes()

	l := uint32(1 + len(body) + 4) // format + body + crc
	dst = append(dst, byte(l>>24), byte(l>>16), byte(l>>8), byte(l))
	start := len(dst)
	dst = append(dst, recFormatBin2)
	dst = append(dst, body...)
	crc := crc32.ChecksumIEEE(dst[start:])
	return append(dst, byte(crc>>24), byte(crc>>16), byte(crc>>8), byte(crc))
}

// decodeRecord parses one frame from buf and returns the record plus the
// total bytes consumed. Any defect — short buffer, bad length, unknown
// format, CRC mismatch, malformed body — returns an error; the caller
// treats the failing offset as the end of the valid prefix.
func decodeRecord(buf []byte) (Record, int, error) {
	if len(buf) < 4 {
		return Record{}, 0, fmt.Errorf("store: short frame header (%d bytes)", len(buf))
	}
	l := uint32(buf[0])<<24 | uint32(buf[1])<<16 | uint32(buf[2])<<8 | uint32(buf[3])
	if l < 1+4 || l > maxRecord {
		return Record{}, 0, fmt.Errorf("store: bad record length %d", l)
	}
	if int(l) > len(buf)-4 {
		return Record{}, 0, fmt.Errorf("store: truncated record (%d of %d bytes)", len(buf)-4, l)
	}
	frame := buf[4 : 4+int(l)] // format + body + crc
	crcAt := len(frame) - 4
	want := uint32(frame[crcAt])<<24 | uint32(frame[crcAt+1])<<16 | uint32(frame[crcAt+2])<<8 | uint32(frame[crcAt+3])
	if got := crc32.ChecksumIEEE(frame[:crcAt]); got != want {
		return Record{}, 0, fmt.Errorf("store: record CRC mismatch (%08x != %08x)", got, want)
	}
	format := frame[0]
	if format != recFormatBin && format != recFormatBin2 {
		return Record{}, 0, fmt.Errorf("store: unknown record format %d", format)
	}
	br := cluster.NewBinReader(frame[1:crcAt])
	r := Record{
		Seq:  br.Uvarint(),
		Type: Type(br.Byte()),
		Job:  br.String(),
		Time: br.Varint(),
	}
	r.JobSeq = br.Varint()
	if spec := br.String(); spec != "" {
		r.Spec = []byte(spec)
	}
	r.Updates = br.Varint()
	r.DispatchSeq = br.Varint()
	r.Detail = br.String()
	r.HasFinal = br.Byte() == 1
	r.FinalError = br.Float64()
	if format >= recFormatBin2 {
		r.Owner = br.String()
		r.Epoch = br.Varint()
		r.ExpiresAt = br.Varint()
	}
	if err := br.Err(); err != nil {
		return Record{}, 0, fmt.Errorf("store: record body: %w", err)
	}
	if _, ok := typeNames[r.Type]; !ok {
		return Record{}, 0, fmt.Errorf("store: unknown record type %d", r.Type)
	}
	return r, 4 + int(l), nil
}
