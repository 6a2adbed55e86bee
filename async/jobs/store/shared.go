package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/opt"
)

// SharedOptions configure one replica's handle onto a shared store
// directory.
type SharedOptions struct {
	// NoSync skips fsyncs (tests and benchmarks only).
	NoSync bool
	// CompactEvery triggers self-compaction once that many records were
	// appended since the last rewrite. 0 uses a default of 4096; negative
	// disables self-compaction.
	CompactEvery int
	// RetainTerminal bounds how many terminal jobs self-compaction keeps in
	// the rewritten log (most recent by finish time). 0 uses a default of
	// 256.
	RetainTerminal int
}

const (
	sharedLockName        = "wal.lock"
	defaultCompactEvery   = 4096
	defaultRetainTerminal = 256
	sharedMagicLen        = 4 // len(walMagic)
)

// Shared is the multi-replica file Store: several replica handles (same
// process or not) share one WAL directory, serialized by an exclusive
// flock on wal.lock around every mutation. Each handle keeps a cached view
// of the log (records, lease table, seq) and refreshes it incrementally
// under the lock before acting, so cross-replica appends, lease claims,
// and even whole-log compaction swaps are observed before any decision is
// made on stale state.
//
// Unlike WAL, Compact ignores the caller's snapshot: no single replica
// sees the whole cluster's live set, so Shared derives the compacted log
// from the log itself (the Records of each job's lifecycle fold, terminal
// history bounded by RetainTerminal, lease table re-serialized).
// Other replicas detect the rewrite by inode change and re-read from the
// top; ReplaySince watermarks carry a generation for the same reason.
type Shared struct {
	mu      sync.Mutex
	dir     string
	replica string
	opts    SharedOptions
	lockF   *os.File
	f       *os.File
	off     int64 // validated byte length of our view of wal.log
	seq     uint64
	gen     uint64 // bumped on every observed compaction swap
	records []Record
	lt      *leaseTable
	buf     []byte

	sinceCompact int64
	appends      int64
	fsyncs       int64
	fsyncNS      int64
	compactions  int64
	spills       int64
	claims       int64
	renews       int64
	fenced       int64
	replayed     int64
	truncated    bool

	// failpoints (tests), same semantics as WAL
	failAfter     int64
	armed         bool
	failTransient bool
	dead          bool
	closed        bool
}

// OpenShared opens (creating if needed) the shared store in dir as the
// named replica. Any number of OpenShared handles — across goroutines or
// processes — may serve the same directory concurrently.
func OpenShared(dir, replica string, opts SharedOptions) (*Shared, error) {
	if replica == "" {
		return nil, fmt.Errorf("store: shared open: empty replica id")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	lockF, err := os.OpenFile(filepath.Join(dir, sharedLockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open lock: %w", err)
	}
	s := &Shared{dir: dir, replica: replica, opts: opts, lockF: lockF, lt: newLeaseTable()}
	if s.opts.CompactEvery == 0 {
		s.opts.CompactEvery = defaultCompactEvery
	}
	if s.opts.RetainTerminal == 0 {
		s.opts.RetainTerminal = defaultRetainTerminal
	}
	if err := s.flock(); err != nil {
		lockF.Close()
		return nil, err
	}
	defer s.funlock()
	path := filepath.Join(dir, walName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		lockF.Close()
		return nil, fmt.Errorf("store: open %s: %w", path, err)
	}
	s.f = f
	fi, err := f.Stat()
	if err != nil {
		s.closeFiles()
		return nil, fmt.Errorf("store: stat %s: %w", path, err)
	}
	if fi.Size() == 0 {
		if _, err := f.WriteAt(walMagic, 0); err != nil {
			s.closeFiles()
			return nil, fmt.Errorf("store: init %s: %w", path, err)
		}
		if err := s.syncLog(); err != nil {
			s.closeFiles()
			return nil, err
		}
	} else if err := s.checkMagic(); err != nil {
		s.closeFiles()
		return nil, err
	}
	s.off = sharedMagicLen
	if err := s.scanTailLocked(); err != nil {
		s.closeFiles()
		return nil, err
	}
	s.replayed = int64(len(s.records))
	walReplayed.Add(s.replayed)
	if s.truncated {
		walTruncations.Inc()
	}
	return s, nil
}

func (s *Shared) closeFiles() {
	if s.f != nil {
		s.f.Close()
	}
	s.lockF.Close()
}

// flock takes the exclusive cross-handle lock; funlock releases it. Each
// handle has its own open file description, so two in-process replicas
// exclude each other exactly like two processes would.
func (s *Shared) flock() error {
	if err := syscall.Flock(int(s.lockF.Fd()), syscall.LOCK_EX); err != nil {
		return fmt.Errorf("store: flock: %w", err)
	}
	return nil
}

func (s *Shared) funlock() { _ = syscall.Flock(int(s.lockF.Fd()), syscall.LOCK_UN) }

// enter is how every operation on the shared log starts: take the handle
// mutex and the cross-handle flock, and bring the cached view up to date.
// The returned func releases both.
func (s *Shared) enter() (leave func(), err error) {
	s.mu.Lock()
	if s.dead || s.closed {
		err = ErrClosed
	} else if err = s.flock(); err == nil {
		if err = s.refreshLocked(); err == nil {
			return func() { s.funlock(); s.mu.Unlock() }, nil
		}
		s.funlock()
	}
	s.mu.Unlock()
	return nil, err
}

func (s *Shared) checkMagic() error {
	head := make([]byte, sharedMagicLen)
	if _, err := s.f.ReadAt(head, 0); err != nil || !bytes.Equal(head, walMagic) {
		return fmt.Errorf("store: %s is not a WAL (bad magic)", filepath.Join(s.dir, walName))
	}
	return nil
}

// refreshLocked brings the cached view up to date. Must hold mu and the
// flock. Detects a compaction swap (another replica renamed a rewritten
// log over ours) by inode comparison and restarts the view from byte 0;
// then scans any unread tail.
func (s *Shared) refreshLocked() error {
	path := filepath.Join(s.dir, walName)
	dfi, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("store: refresh stat: %w", err)
	}
	ffi, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("store: refresh fstat: %w", err)
	}
	if !os.SameFile(dfi, ffi) {
		nf, err := os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("store: reopen after compaction: %w", err)
		}
		_ = s.f.Close()
		s.f = nf
		if err := s.checkMagic(); err != nil {
			return err
		}
		s.off = sharedMagicLen
		s.seq = 0
		s.gen++
		s.records = s.records[:0]
		s.lt = newLeaseTable()
	}
	return s.scanTailLocked()
}

// scanTailLocked decodes records from s.off to EOF, folding them into the
// cached view. A torn or corrupt tail (a replica died mid-append) is
// truncated — safe because the flock is held, so no live writer is past
// it.
func (s *Shared) scanTailLocked() error {
	fi, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("store: tail stat: %w", err)
	}
	size := fi.Size()
	if size <= s.off {
		return nil
	}
	data := make([]byte, size-s.off)
	if _, err := s.f.ReadAt(data, s.off); err != nil {
		return fmt.Errorf("store: tail read: %w", err)
	}
	o := 0
	for o < len(data) {
		rec, n, err := decodeRecord(data[o:])
		if err != nil || rec.Seq != s.seq+1 {
			// damaged here: cut the tail and stop
			if err := s.f.Truncate(s.off + int64(o)); err != nil {
				return fmt.Errorf("store: truncate torn tail: %w", err)
			}
			if err := s.syncLog(); err != nil {
				return err
			}
			s.truncated = true
			walTruncations.Inc()
			break
		}
		s.records = append(s.records, rec)
		s.lt.apply(&rec)
		s.seq = rec.Seq
		o += n
	}
	s.off += int64(o)
	return nil
}

// syncFile fsyncs f (unless NoSync) and accounts the latency.
func (s *Shared) syncFile(f *os.File) error {
	if s.opts.NoSync {
		return nil
	}
	start := time.Now()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: fsync: %w", err)
	}
	s.fsyncs++
	s.fsyncNS += time.Since(start).Nanoseconds()
	walFsyncLat.ObserveSince(start)
	return nil
}

func (s *Shared) syncLog() error { return s.syncFile(s.f) }

// appendRecLocked durably writes one record at the tail of the refreshed
// view and folds it into the caches. Fencing is the caller's concern.
// Nothing — seq, offset, caches — advances until the frame is durable: a
// failed write or fsync unwinds the file back to the pre-append tail, so
// seq numbering stays contiguous with the durable log and the next append
// cannot be mistaken for a torn tail by peer replicas.
func (s *Shared) appendRecLocked(rec *Record) error {
	start := time.Now()
	rec.Seq = s.seq + 1
	if rec.Time == 0 {
		rec.Time = start.UnixNano()
	}
	s.buf = rec.encode(s.buf[:0])
	frame := s.buf
	if s.armed {
		if s.failAfter <= 0 {
			// failpoint: tear this append mid-record and die (kill -9
			// between write and ack); the next replica to take the lock
			// truncates the torn tail
			torn := frame[:len(frame)/2]
			_, _ = s.f.WriteAt(torn, s.off)
			s.dead = true
			return ErrClosed
		}
		s.failAfter--
	}
	if err := s.writeFrameLocked(frame); err != nil {
		s.unwindAppendLocked()
		return err
	}
	s.seq = rec.Seq
	s.off += int64(len(frame))
	s.records = append(s.records, *rec)
	s.lt.apply(rec)
	s.appends++
	s.sinceCompact++
	walAppends.Inc()
	walAppendLat.ObserveSince(start)
	return nil
}

// writeFrameLocked lands one encoded frame durably at the validated tail.
func (s *Shared) writeFrameLocked(frame []byte) error {
	if s.failTransient {
		// transient failpoint: half the frame lands before the write errors
		// (ENOSPC-style); unlike the crash failpoint the handle survives
		s.failTransient = false
		_, _ = s.f.WriteAt(frame[:len(frame)/2], s.off)
		return fmt.Errorf("store: append: injected transient write failure")
	}
	if _, err := s.f.WriteAt(frame, s.off); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	return s.syncLog()
}

// unwindAppendLocked restores the log file to the validated tail (s.off)
// after a failed append, discarding any partially-written frame. If even
// the truncate cannot be made durable the handle goes dead — its view can
// no longer be trusted, and the flock holder that follows will cut any
// torn bytes on refresh.
func (s *Shared) unwindAppendLocked() {
	if err := s.f.Truncate(s.off); err != nil {
		s.dead = true
		return
	}
	if err := s.syncLog(); err != nil {
		s.dead = true
	}
}

// Dir returns the store directory.
func (s *Shared) Dir() string { return s.dir }

// Replica returns the handle's replica ID.
func (s *Shared) Replica() string { return s.replica }

// Replay streams the current log from the top. Called once at scheduler
// boot; later cross-replica records arrive through ReplaySince.
func (s *Shared) Replay(fn func(Record) error) error {
	_, err := s.ReplaySince(Watermark{}, fn)
	return err
}

// Append durably logs one record, fencing ownership-asserting records
// against the live lease table (ErrFenced for stale owners).
func (s *Shared) Append(rec *Record) error {
	leave, err := s.enter()
	if err != nil {
		return err
	}
	defer leave()
	if err := s.lt.fence(rec, time.Now()); err != nil {
		s.fenced++
		walFencedAppends.Inc()
		return err
	}
	if err := s.appendRecLocked(rec); err != nil {
		return err
	}
	if s.opts.CompactEvery > 0 && s.sinceCompact >= int64(s.opts.CompactEvery) {
		// best effort: a failed rewrite leaves the (complete) old log
		if err := s.selfCompactLocked(); err != nil {
			return nil
		}
	}
	return nil
}

// Claim acquires the job's lease for this replica via the claim CAS: free,
// expired, or self-held leases are claimable (epoch bumps past every epoch
// ever observed); a live foreign lease fails with ErrLeaseHeld.
func (s *Shared) Claim(job, owner string, ttl time.Duration) (Lease, error) {
	leave, err := s.enter()
	if err != nil {
		return Lease{}, err
	}
	defer leave()
	l, err := s.lt.claim(job, owner, ttl, time.Now())
	if err != nil {
		return Lease{}, err
	}
	rec := &Record{Type: TypeClaimed, Job: job, Owner: l.Owner, Epoch: l.Epoch, ExpiresAt: l.ExpiresAt}
	if err := s.appendRecLocked(rec); err != nil {
		return Lease{}, err
	}
	s.claims++
	walLeaseClaims.Inc()
	return l, nil
}

// Renew extends this replica's live lease; ErrFenced when the lease
// expired or was superseded (the caller must stop acting as owner and
// re-claim).
func (s *Shared) Renew(job, owner string, epoch int64, ttl time.Duration) (Lease, error) {
	leave, err := s.enter()
	if err != nil {
		return Lease{}, err
	}
	defer leave()
	l, err := s.lt.renew(job, owner, epoch, ttl, time.Now())
	if err != nil {
		s.fenced++
		walFencedAppends.Inc()
		return Lease{}, err
	}
	rec := &Record{Type: TypeRenewed, Job: job, Owner: owner, Epoch: epoch, ExpiresAt: l.ExpiresAt}
	if err := s.appendRecLocked(rec); err != nil {
		return Lease{}, err
	}
	s.renews++
	walLeaseRenewals.Inc()
	return l, nil
}

// Release ends this replica's lease. Releasing a lease the table no longer
// holds is a no-op; a mismatched live lease is ErrFenced.
func (s *Shared) Release(job, owner string, epoch int64) error {
	leave, err := s.enter()
	if err != nil {
		return err
	}
	defer leave()
	_, held, err := s.lt.release(job, owner, epoch)
	if err != nil {
		s.fenced++
		walFencedAppends.Inc()
		return err
	}
	if !held {
		return nil
	}
	return s.appendRecLocked(&Record{Type: TypeReleased, Job: job, Owner: owner, Epoch: epoch})
}

// Leases snapshots the lease table (expired entries included — they are
// the orphans an adopter scans for).
func (s *Shared) Leases() ([]Lease, error) {
	leave, err := s.enter()
	if err != nil {
		return nil, err
	}
	defer leave()
	return s.lt.snapshot(), nil
}

// ReplaySince streams records appended after the watermark; a compaction
// swap bumps the generation and the rewritten log replays from its top.
func (s *Shared) ReplaySince(w Watermark, fn func(Record) error) (Watermark, error) {
	leave, err := s.enter()
	if err != nil {
		return w, err
	}
	from := 0
	if w.Gen == s.gen && w.Seq <= uint64(len(s.records)) {
		from = int(w.Seq)
	}
	recs := append([]Record(nil), s.records[from:]...)
	out := Watermark{Gen: s.gen, Seq: s.seq}
	leave()
	for _, r := range recs {
		if err := fn(r); err != nil {
			return w, err
		}
	}
	return out, nil
}

// SaveCheckpoint durably spills cp keyed by (job, dispatchSeq); see
// saveSpill for the protocol. Spills need no flock: job IDs are
// replica-unique at submission and lease-owned afterwards, so two replicas
// never spill the same job concurrently.
func (s *Shared) SaveCheckpoint(job string, dispatchSeq int64, cp *opt.Checkpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead || s.closed {
		return ErrClosed
	}
	if err := saveSpill(s.dir, job, dispatchSeq, cp, s.syncFile); err != nil {
		return err
	}
	s.spills++
	walSpills.Inc()
	return nil
}

// LoadCheckpoint loads the spill keyed by (job, dispatchSeq).
func (s *Shared) LoadCheckpoint(job string, dispatchSeq int64) (*opt.Checkpoint, error) {
	return loadSpill(s.dir, job, dispatchSeq)
}

// DropJob removes all spilled checkpoints of a terminal job.
func (s *Shared) DropJob(job string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead || s.closed {
		return ErrClosed
	}
	sweepSpills(s.dir, func(j, _ string) bool { return j == job })
	return nil
}

// Compact rewrites the shared log. The caller's snapshot is IGNORED: a
// replica's local snapshot misses every job other replicas own, so
// compacting to it would destroy cluster state. Shared instead derives the
// snapshot from the log itself (see selfCompactLocked).
func (s *Shared) Compact([]*Record) error {
	leave, err := s.enter()
	if err != nil {
		return err
	}
	defer leave()
	return s.selfCompactLocked()
}

// selfCompactLocked rewrites the log from the log: every job survives as
// the Records of its lifecycle fold (terminal jobs bounded to the
// RetainTerminal most recent), and the lease table is re-serialized so
// claims and epoch high-waters outlive the rewrite (atomic: see
// rewriteLog). Other replicas detect the swap by inode change on their
// next refresh.
func (s *Shared) selfCompactLocked() error {
	// jobs in order of first appearance, so the rewrite is deterministic
	var order, terminalJobs []string
	seen := map[string]bool{}
	for i := range s.records {
		job := s.records[i].Job
		if st := s.lt.jobs[job]; st != nil && !seen[job] {
			seen[job] = true
			order = append(order, job)
			if st.Phase.Terminal() {
				terminalJobs = append(terminalJobs, job)
			}
		}
	}
	// bound terminal history: most recent RetainTerminal finish times win
	drop := map[string]bool{}
	if over := len(terminalJobs) - s.opts.RetainTerminal; over > 0 {
		sort.SliceStable(terminalJobs, func(i, j int) bool {
			return s.lt.jobs[terminalJobs[i]].Finished < s.lt.jobs[terminalJobs[j]].Finished
		})
		for _, job := range terminalJobs[:over] {
			drop[job] = true
		}
	}
	var snapshot []*Record
	for _, job := range order {
		if !drop[job] {
			snapshot = append(snapshot, s.lt.jobs[job].Records(job)...)
		}
	}
	snapshot = append(snapshot, s.lt.snapshotRecords(time.Now().UnixNano())...)

	nf, buf, err := rewriteLog(s.dir, snapshot, s.buf, s.syncFile)
	if err != nil {
		return err
	}
	_ = s.f.Close()
	s.f, s.buf = nf, buf[:0]
	// the view restarts from the rewritten log, exactly as a peer's will:
	// jobs past the retention bound leave the fold with their records
	s.records = make([]Record, 0, len(snapshot))
	s.lt = newLeaseTable()
	for _, rec := range snapshot {
		s.records = append(s.records, *rec)
		s.lt.apply(rec)
	}
	s.gen++
	s.seq = uint64(len(snapshot))
	s.off = int64(len(buf))
	s.sinceCompact = 0
	s.compactions++
	s.appends += int64(len(snapshot))
	walCompactions.Inc()
	walAppends.Add(int64(len(snapshot)))
	return nil
}

// Sync fsyncs the log (graceful-shutdown flush).
func (s *Shared) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead || s.closed {
		return ErrClosed
	}
	return s.syncLog()
}

// Metrics snapshots the counters.
func (s *Shared) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Metrics{
		Appends:             s.appends,
		AppendsSinceCompact: s.sinceCompact,
		Fsyncs:              s.fsyncs,
		FsyncTotal:          time.Duration(s.fsyncNS),
		SizeBytes:           s.off,
		Compactions:         s.compactions,
		CheckpointSpills:    s.spills,
		ReplayedRecords:     s.replayed,
		TruncatedTail:       s.truncated,
		LeaseClaims:         s.claims,
		LeaseRenewals:       s.renews,
		LeasesHeld:          int64(len(s.lt.leases)),
		FencedAppends:       s.fenced,
	}
}

// Close releases the handle's files. The shared log stays live for other
// replicas.
func (s *Shared) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.f.Close()
	_ = s.lockF.Close()
	return err
}

// FailAfterAppends arms the crash failpoint: the next n appends succeed,
// then the following one tears mid-record and this handle goes dead —
// the surviving replicas truncate the torn tail on their next refresh.
// Testing hook.
func (s *Shared) FailAfterAppends(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.armed = true
	s.failAfter = n
}

// FailNextAppendTransient arms a one-shot transient append failure: half
// the next frame lands before the write errors, but the handle survives
// (unlike FailAfterAppends) — exercising the rollback that keeps seq
// numbering contiguous with the durable log. Testing hook.
func (s *Shared) FailNextAppendTransient() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failTransient = true
}

// Kill makes this handle drop every subsequent mutation (ErrClosed)
// without tearing the log — a process death at a record boundary. Testing
// hook.
func (s *Shared) Kill() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dead = true
}
