package store

import (
	"errors"
	"time"
)

// Lease-layer errors. ErrFenced is the hard safety signal: the caller's
// ownership epoch is stale (its lease expired, was released, or a newer
// claim bumped the epoch) and the attempted mutation was rejected — a
// partitioned replica gets ErrFenced instead of corrupting shared state.
// ErrLeaseHeld is the soft CAS-failure signal: another replica currently
// holds a live lease on the job; try another job or wait for expiry.
var (
	ErrFenced    = errors.New("store: fenced (stale lease epoch)")
	ErrLeaseHeld = errors.New("store: lease held by another owner")
)

// Lease is one job's ownership record: who may mutate it, under which
// fencing epoch, and until when. Epochs strictly increase per job across
// claims — a claim after expiry or release always observes a higher epoch
// than the one it displaced, so a stale owner can never pass a fence check
// again.
type Lease struct {
	Job       string `json:"job"`
	Owner     string `json:"owner"`
	Epoch     int64  `json:"epoch"`
	ExpiresAt int64  `json:"expires_at"` // unix nanoseconds
}

// Live reports whether the lease is unexpired at now.
func (l Lease) Live(now time.Time) bool {
	return l.Owner != "" && now.UnixNano() < l.ExpiresAt
}

// Watermark identifies a log position for incremental tail reads: the
// compaction generation (compaction renumbers record seqs, so a seq alone
// is ambiguous) plus the last record seq consumed within it. The zero
// Watermark reads from the beginning.
type Watermark struct {
	Gen uint64 `json:"gen"`
	Seq uint64 `json:"seq"`
}

// leaseTable is the in-memory state a WAL handle derives from the record
// stream: who holds which job, and — beside it — each job's lifecycle fold,
// so the lock that orders the log is also where a finished job refuses to
// be claimed or moved again. Not self-locking: the owning handle guards it.
type leaseTable struct {
	leases   map[string]Lease
	maxEpoch map[string]int64 // highest epoch ever observed per job
	jobs     map[string]*JobState
}

func newLeaseTable() *leaseTable {
	return &leaseTable{leases: map[string]Lease{}, maxEpoch: map[string]int64{}, jobs: map[string]*JobState{}}
}

// terminal reports whether the job's fold has reached a terminal phase.
func (t *leaseTable) terminal(job string) bool {
	s := t.jobs[job]
	return s != nil && s.Phase.Terminal()
}

// apply folds one record into the table. Every record goes through the
// job's lifecycle fold; claim/renew/release maintain the lease map, and
// terminal records clear the job's lease (the job is over) and its epoch
// high-water (fence and claim refuse a terminal job from here on).
func (t *leaseTable) apply(rec *Record) {
	s := t.jobs[rec.Job]
	if s == nil && rec.Type == TypeSubmitted {
		s = &JobState{}
		t.jobs[rec.Job] = s
	}
	if s != nil {
		s.Apply(rec)
	}
	switch rec.Type {
	case TypeClaimed:
		t.leases[rec.Job] = Lease{Job: rec.Job, Owner: rec.Owner, Epoch: rec.Epoch, ExpiresAt: rec.ExpiresAt}
		if rec.Epoch > t.maxEpoch[rec.Job] {
			t.maxEpoch[rec.Job] = rec.Epoch
		}
	case TypeRenewed:
		if l, ok := t.leases[rec.Job]; ok && l.Owner == rec.Owner && l.Epoch == rec.Epoch {
			l.ExpiresAt = rec.ExpiresAt
			t.leases[rec.Job] = l
		}
	case TypeReleased:
		if rec.Epoch > t.maxEpoch[rec.Job] {
			t.maxEpoch[rec.Job] = rec.Epoch
		}
		if l, ok := t.leases[rec.Job]; ok && l.Owner == rec.Owner && l.Epoch == rec.Epoch {
			delete(t.leases, rec.Job)
		}
	case TypeDone, TypeFailed, TypeCanceled:
		delete(t.leases, rec.Job)
		delete(t.maxEpoch, rec.Job)
	}
}

// fence validates an ownership-asserting append: a record carrying an
// Owner must match the job's live lease exactly. Ownerless lifecycle
// records (single-owner schedulers) pass unfenced — unless the job holds a
// live lease, in which case only its owner may move the job's state: an
// unfenced Canceled from a bystander must not clear a running replica's
// lease out from under it. Submissions and lease-protocol records are
// never fenced here (claims carry their own CAS). A job whose fold is
// terminal refuses every further record: it reached its one terminal state.
func (t *leaseTable) fence(rec *Record, now time.Time) error {
	if t.terminal(rec.Job) {
		return ErrFenced
	}
	switch rec.Type {
	case TypeClaimed, TypeRenewed, TypeReleased, TypeSubmitted:
		return nil
	}
	l, ok := t.leases[rec.Job]
	if rec.Owner == "" {
		if ok && l.Live(now) {
			return ErrFenced
		}
		return nil
	}
	if !ok || l.Owner != rec.Owner || l.Epoch != rec.Epoch || !l.Live(now) {
		return ErrFenced
	}
	return nil
}

// claim runs the claim CAS against the table and returns the records's
// lease fields; a finished job is never claimed again (ErrFenced). The
// caller appends the returned Claimed record durably before applying it.
func (t *leaseTable) claim(job, owner string, ttl time.Duration, now time.Time) (Lease, error) {
	if t.terminal(job) {
		return Lease{}, ErrFenced
	}
	if l, ok := t.leases[job]; ok && l.Owner != owner && l.Live(now) {
		return Lease{}, ErrLeaseHeld
	}
	return Lease{
		Job:       job,
		Owner:     owner,
		Epoch:     t.maxEpoch[job] + 1,
		ExpiresAt: now.Add(ttl).UnixNano(),
	}, nil
}

// renew validates a renewal and returns the extended lease. An expired or
// superseded lease fails with ErrFenced: the owner must go back through
// the claim CAS.
func (t *leaseTable) renew(job, owner string, epoch int64, ttl time.Duration, now time.Time) (Lease, error) {
	l, ok := t.leases[job]
	if !ok || l.Owner != owner || l.Epoch != epoch || !l.Live(now) {
		return Lease{}, ErrFenced
	}
	l.ExpiresAt = now.Add(ttl).UnixNano()
	return l, nil
}

// release validates a release. A missing lease is a no-op (the terminal
// record already cleared it); a mismatched live lease is ErrFenced.
func (t *leaseTable) release(job, owner string, epoch int64) (Lease, bool, error) {
	l, ok := t.leases[job]
	if !ok {
		return Lease{}, false, nil
	}
	if l.Owner != owner || l.Epoch != epoch {
		return Lease{}, false, ErrFenced
	}
	return l, true, nil
}

// snapshotRecords serializes the table back into log records so a
// compaction preserves lease semantics: one Claimed record per held lease
// (live or expired — an expired lease is an adoptable orphan and must
// survive the rewrite), plus an ownerless Released record pinning the
// epoch high-water of every job whose lease was released. Replaying them
// through apply reproduces the table exactly.
func (t *leaseTable) snapshotRecords(now int64) []*Record {
	recs := make([]*Record, 0, len(t.leases)+len(t.maxEpoch))
	for _, l := range t.leases {
		recs = append(recs, &Record{
			Type: TypeClaimed, Job: l.Job, Time: now,
			Owner: l.Owner, Epoch: l.Epoch, ExpiresAt: l.ExpiresAt,
		})
	}
	for job, epoch := range t.maxEpoch {
		if _, held := t.leases[job]; !held {
			recs = append(recs, &Record{Type: TypeReleased, Job: job, Time: now, Epoch: epoch})
		}
	}
	return recs
}

// snapshot copies the lease table.
func (t *leaseTable) snapshot() []Lease {
	out := make([]Lease, 0, len(t.leases))
	for _, l := range t.leases {
		out = append(out, l)
	}
	return out
}
