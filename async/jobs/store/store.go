package store

import (
	"errors"
	"time"

	"repro/internal/opt"
)

// ErrClosed is returned by operations on a closed (or crash-simulated)
// store.
var ErrClosed = errors.New("store: closed")

// Store is the durability seam the scheduler writes through. WAL implements
// it — one log, opened by its sole owner (Open) or shared by replicas
// (OpenShared) — and faulty.Wrap layers fault injection over a WAL handle.
//
// Append must make the record durable before returning (append-before-ack);
// SaveCheckpoint must durably spill the capture before the caller appends
// the record that references it. Replay yields the recovered records in log
// order. Compact atomically replaces the log with the given snapshot and
// garbage-collects checkpoints of jobs absent from it — except on a replica
// handle, whose caller cannot see its peers' jobs: it compacts to the
// snapshot the log itself folds to.
//
// Replicas coordinate through the lease methods: lease-based job claiming
// with epoch fencing, plus incremental tail replay so replicas learn of each
// other's appends. Fencing contract: Append with a non-empty rec.Owner
// succeeds only while the job's live lease matches (Owner, Epoch) exactly
// and is unexpired; otherwise ErrFenced. Claim succeeds when the job is
// unleased, its lease expired, or the claimant already owns it — always
// bumping the epoch. Renew extends a live lease the caller holds; a renew
// after expiry fails with ErrFenced (the owner must re-claim, racing any
// adopter through the same CAS). Terminal records clear the lease
// implicitly, and from then on the job refuses claims and appends alike
// with ErrFenced.
type Store interface {
	// Replay streams the log's records in order: ReplaySince from the zero
	// Watermark, without the watermark.
	Replay(fn func(Record) error) error
	// Append durably logs one transition, assigning rec.Seq.
	Append(rec *Record) error
	// SaveCheckpoint durably spills a capture keyed by (job, dispatchSeq).
	SaveCheckpoint(job string, dispatchSeq int64, cp *opt.Checkpoint) error
	// LoadCheckpoint loads the spill keyed by (job, dispatchSeq).
	LoadCheckpoint(job string, dispatchSeq int64) (*opt.Checkpoint, error)
	// DropJob removes a terminal job's spilled checkpoints (best effort).
	DropJob(job string) error
	// Compact atomically replaces the log with snapshot and deletes
	// checkpoints of jobs no snapshot record names.
	Compact(snapshot []*Record) error
	// Sync flushes and fsyncs any buffered state (graceful shutdown).
	Sync() error
	// Metrics snapshots the store's counters.
	Metrics() Metrics
	Close() error

	// Claim atomically acquires the job's lease for owner with the given
	// TTL, bumping the epoch past every epoch ever observed for the job.
	// Fails with ErrLeaseHeld while another owner's lease is live, and with
	// ErrFenced once the job has a terminal record.
	Claim(job, owner string, ttl time.Duration) (Lease, error)
	// Renew extends the caller's live lease; ErrFenced if the (owner,
	// epoch) pair is stale or the lease already expired.
	Renew(job, owner string, epoch int64, ttl time.Duration) (Lease, error)
	// Release ends the caller's lease; ErrFenced on a stale pair. Releasing
	// an already-cleared lease is a no-op.
	Release(job, owner string, epoch int64) error
	// Leases snapshots the lease table, expired entries included (the
	// caller distinguishes by ExpiresAt — an expired entry is an orphan
	// candidate).
	Leases() ([]Lease, error)
	// ReplaySince streams records appended after the watermark and returns
	// the new watermark. After a compaction the generation changes and the
	// log replays from its (rewritten) beginning.
	ReplaySince(w Watermark, fn func(Record) error) (Watermark, error)
}

// Metrics is a point-in-time snapshot of a store's counters, surfaced
// through the scheduler's /v1/metrics endpoint.
type Metrics struct {
	// Appends counts durably acknowledged records (lifetime, compaction
	// included).
	Appends int64 `json:"appends"`
	// AppendsSinceCompact counts records since the last compaction; the
	// scheduler's compaction trigger reads it.
	AppendsSinceCompact int64 `json:"appends_since_compact"`
	// Fsyncs and FsyncTotal measure the fsync latency the append path pays.
	Fsyncs     int64         `json:"fsyncs"`
	FsyncTotal time.Duration `json:"fsync_total_ns"`
	// SizeBytes is the current log size.
	SizeBytes int64 `json:"size_bytes"`
	// Compactions counts log rewrites.
	Compactions int64 `json:"compactions"`
	// CheckpointSpills counts durable checkpoint files written.
	CheckpointSpills int64 `json:"checkpoint_spills"`
	// ReplayedRecords is how many records the last open recovered.
	ReplayedRecords int64 `json:"replayed_records"`
	// TruncatedTail reports that the last open found (and cut) a torn or
	// corrupt log tail — expected after a crash mid-append.
	TruncatedTail bool `json:"truncated_tail,omitempty"`

	// Lease-layer counters.
	LeaseClaims   int64 `json:"lease_claims,omitempty"`
	LeaseRenewals int64 `json:"lease_renewals,omitempty"`
	LeasesHeld    int64 `json:"leases_held,omitempty"`
	// FencedAppends counts mutations rejected with ErrFenced — each one is
	// a stale replica that tried to write after losing its lease.
	FencedAppends int64 `json:"fenced_appends,omitempty"`
}
