package store

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"repro/internal/opt"
)

// Mem is an in-memory Store: the same append/replay/compact surface as WAL
// with no disk under it. It backs scheduler-store integration tests and
// demonstrates that the scheduler depends only on the seam; it survives a
// scheduler restart (hand the same *Mem to the next one) but not a process
// death. Mem is also a LeaseStore — several schedulers can share one *Mem
// with lease-fenced claiming, which is what the deterministic chaos tests
// run on.
type Mem struct {
	mu      sync.Mutex
	records []Record
	spills  map[string]memSpill // job → its one retained spill
	seq     uint64
	gen     uint64 // bumped by Compact; versions ReplaySince watermarks
	lt      *leaseTable
	appends int64
	since   int64
	compact int64
	nspills int64
	claims  int64
	renews  int64
	fenced  int64
	closed  bool
}

// memSpill is a job's newest encoded checkpoint (a newer spill replaces the
// older one, as the file stores do).
type memSpill struct {
	dispatchSeq int64
	data        []byte
}

// NewMem builds an empty in-memory store.
func NewMem() *Mem { return &Mem{spills: map[string]memSpill{}, lt: newLeaseTable()} }

// Replay streams the held records in order.
func (m *Mem) Replay(fn func(Record) error) error {
	m.mu.Lock()
	recs := append([]Record(nil), m.records...)
	m.mu.Unlock()
	for _, r := range recs {
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

// Append logs one record, fencing ownership-asserting records against the
// lease table.
func (m *Mem) Append(rec *Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if err := m.lt.fence(rec, time.Now()); err != nil {
		m.fenced++
		walFencedAppends.Inc()
		return err
	}
	m.appendLocked(rec)
	return nil
}

// appendLocked assigns the next seq and applies the record (lease table
// included). Fencing is the caller's job.
func (m *Mem) appendLocked(rec *Record) {
	m.seq++
	rec.Seq = m.seq
	m.records = append(m.records, *rec)
	m.lt.apply(rec)
	m.appends++
	m.since++
}

// SaveCheckpoint spills an encoded copy keyed by (job, dispatchSeq).
func (m *Mem) SaveCheckpoint(job string, dispatchSeq int64, cp *opt.Checkpoint) error {
	var buf bytes.Buffer
	if err := opt.SaveCheckpoint(&buf, cp); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.spills[job] = memSpill{dispatchSeq, buf.Bytes()}
	m.nspills++
	return nil
}

// LoadCheckpoint decodes the spill keyed by (job, dispatchSeq).
func (m *Mem) LoadCheckpoint(job string, dispatchSeq int64) (*opt.Checkpoint, error) {
	m.mu.Lock()
	sp, ok := m.spills[job]
	m.mu.Unlock()
	if !ok || sp.dispatchSeq != dispatchSeq {
		return nil, fmt.Errorf("store: no spill for %s@%d", job, dispatchSeq)
	}
	return opt.LoadCheckpoint(bytes.NewReader(sp.data))
}

// DropJob removes the job's spills.
func (m *Mem) DropJob(job string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	delete(m.spills, job)
	return nil
}

// Compact replaces the record list with snapshot and drops spills of jobs
// it no longer mentions. Lease state survives the rewrite: the table is
// re-serialized onto the new log so claims and epoch high-waters are not
// lost, and the job folds restart from the snapshot — the table is always
// the fold of the records held.
func (m *Mem) Compact(snapshot []*Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	snapshot = append(snapshot, m.lt.snapshotRecords(time.Now().UnixNano())...)
	keep := make(map[string]bool, len(snapshot))
	m.records = m.records[:0]
	m.lt = newLeaseTable()
	for i, rec := range snapshot {
		rec.Seq = uint64(i + 1)
		m.records = append(m.records, *rec)
		m.lt.apply(rec)
		keep[rec.Job] = true
	}
	m.seq = uint64(len(snapshot))
	m.gen++
	m.since = 0
	m.compact++
	m.appends += int64(len(snapshot))
	for job := range m.spills {
		if !keep[job] {
			delete(m.spills, job)
		}
	}
	return nil
}

// Sync is a no-op for the in-memory store.
func (m *Mem) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	return nil
}

// Metrics snapshots the counters.
func (m *Mem) Metrics() Metrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Metrics{
		Appends:             m.appends,
		AppendsSinceCompact: m.since,
		Compactions:         m.compact,
		CheckpointSpills:    m.nspills,
		ReplayedRecords:     int64(len(m.records)),
		LeaseClaims:         m.claims,
		LeaseRenewals:       m.renews,
		LeasesHeld:          int64(len(m.lt.leases)),
		FencedAppends:       m.fenced,
	}
}

// Claim acquires the job's lease for owner (LeaseStore).
func (m *Mem) Claim(job, owner string, ttl time.Duration) (Lease, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Lease{}, ErrClosed
	}
	l, err := m.lt.claim(job, owner, ttl, time.Now())
	if err != nil {
		return Lease{}, err
	}
	m.appendLocked(&Record{
		Type: TypeClaimed, Job: job, Time: time.Now().UnixNano(),
		Owner: l.Owner, Epoch: l.Epoch, ExpiresAt: l.ExpiresAt,
	})
	m.claims++
	walLeaseClaims.Inc()
	return l, nil
}

// Renew extends the caller's live lease (LeaseStore).
func (m *Mem) Renew(job, owner string, epoch int64, ttl time.Duration) (Lease, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Lease{}, ErrClosed
	}
	l, err := m.lt.renew(job, owner, epoch, ttl, time.Now())
	if err != nil {
		m.fenced++
		walFencedAppends.Inc()
		return Lease{}, err
	}
	m.appendLocked(&Record{
		Type: TypeRenewed, Job: job, Time: time.Now().UnixNano(),
		Owner: owner, Epoch: epoch, ExpiresAt: l.ExpiresAt,
	})
	m.renews++
	walLeaseRenewals.Inc()
	return l, nil
}

// Release ends the caller's lease (LeaseStore).
func (m *Mem) Release(job, owner string, epoch int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	_, held, err := m.lt.release(job, owner, epoch)
	if err != nil {
		m.fenced++
		walFencedAppends.Inc()
		return err
	}
	if !held {
		return nil
	}
	m.appendLocked(&Record{
		Type: TypeReleased, Job: job, Time: time.Now().UnixNano(),
		Owner: owner, Epoch: epoch,
	})
	return nil
}

// Leases snapshots the lease table (LeaseStore).
func (m *Mem) Leases() ([]Lease, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	return m.lt.snapshot(), nil
}

// ReplaySince streams records appended after the watermark (LeaseStore).
// A compaction bumps the generation and replays the rewritten log from its
// beginning.
func (m *Mem) ReplaySince(w Watermark, fn func(Record) error) (Watermark, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return w, ErrClosed
	}
	from := 0
	if w.Gen == m.gen && w.Seq <= uint64(len(m.records)) {
		from = int(w.Seq)
	}
	recs := append([]Record(nil), m.records[from:]...)
	out := Watermark{Gen: m.gen, Seq: m.seq}
	m.mu.Unlock()
	for _, r := range recs {
		if err := fn(r); err != nil {
			return w, err
		}
	}
	return out, nil
}

// Close marks the store closed; the held state stays replayable by a
// successor scheduler after Reopen.
func (m *Mem) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}

// Reopen clears the closed flag so a successor scheduler can recover from
// the held state (the in-memory analogue of re-opening a WAL directory).
func (m *Mem) Reopen() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = false
}
