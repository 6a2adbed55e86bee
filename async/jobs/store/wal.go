package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/opt"
)

// Options configure a sole-owner handle (Open).
type Options struct {
	// NoSync skips the per-append fsync (tests and benchmarks; a real
	// daemon should leave it off — the append-before-ack invariant is only
	// as strong as the sync under it).
	NoSync bool
}

// SharedOptions configure a replica handle (OpenShared). A sole owner reads
// only NoSync: its scheduler drives compaction and decides retention.
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
	walName               = "wal.log"
	lockName              = "wal.lock"
	ownerName             = "wal.owner"
	defaultCompactEvery   = 4096
	defaultRetainTerminal = 256
	magicLen              = 4 // len(walMagic)
)

// WAL is the file-backed Store: one wal.log of CRC-framed records plus
// per-job checkpoint spill files inside one directory. A handle is either
// the directory's sole owner (Open) or one of any number of replicas sharing
// it (OpenShared, same process or not); the owner lock on wal.owner, held
// for the handle's whole life, refuses every other combination at open.
//
// Every mutation is serialized by an exclusive flock on wal.lock. Each
// handle keeps a cached view of the log (records, lease table, seq) and
// refreshes it incrementally under the lock before acting, so cross-replica
// appends, lease claims, and even whole-log compaction swaps are observed
// before any decision is made on stale state.
//
// The two kinds of handle differ in what Compact installs: a sole owner
// sees every job, so it installs the caller's snapshot (the Store
// contract); a replica's caller misses every job its peers own, so a
// replica derives the snapshot from the log itself (the Records of each
// job's lifecycle fold, terminal history bounded by RetainTerminal, lease
// table re-serialized) and also compacts itself every CompactEvery appends.
// Other replicas detect the rewrite by inode change and re-read from the
// top; ReplaySince watermarks carry a generation for the same reason.
type WAL struct {
	mu      sync.Mutex
	dir     string
	replica string // "" for the sole owner: no other handle on dir is live
	opts    SharedOptions
	ownerF  *os.File // holds the owner lock while the handle lives
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

	// failpoints (tests): failAfter counts down on each append; at zero the
	// append tears mid-record and the handle dies — exactly what kill -9
	// between write and ack looks like. dead makes every later mutation
	// return ErrClosed.
	failAfter     int64
	armed         bool
	failTransient bool
	dead          bool
	closed        bool
}

// Open opens (creating if needed) the store in dir as its sole owner: it
// scans wal.log, keeps the longest valid prefix of records, truncates any
// torn or corrupt tail, and fails if any other handle has dir open.
func Open(dir string, opts Options) (*WAL, error) {
	return open(dir, "", SharedOptions{NoSync: opts.NoSync, CompactEvery: -1})
}

// OpenShared opens dir the same way as the named replica. Any number of
// OpenShared handles — across goroutines or processes — may serve the same
// directory concurrently; it fails while a sole owner has dir open.
func OpenShared(dir, replica string, opts SharedOptions) (*WAL, error) {
	if replica == "" {
		return nil, fmt.Errorf("store: shared open: empty replica id")
	}
	return open(dir, replica, opts)
}

func open(dir, replica string, opts SharedOptions) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	w := &WAL{dir: dir, replica: replica, opts: opts, lt: newLeaseTable()}
	if w.opts.CompactEvery == 0 {
		w.opts.CompactEvery = defaultCompactEvery
	}
	if w.opts.RetainTerminal == 0 {
		w.opts.RetainTerminal = defaultRetainTerminal
	}
	if err := w.recoverLog(); err != nil {
		w.closeFiles()
		return nil, err
	}
	return w, nil
}

// recoverLog takes the owner lock, opens the log and builds the first view of
// it under the flock.
func (w *WAL) recoverLog() (err error) {
	if w.ownerF, err = os.OpenFile(filepath.Join(w.dir, ownerName), os.O_CREATE|os.O_RDWR, 0o644); err != nil {
		return fmt.Errorf("store: open owner lock: %w", err)
	}
	how := syscall.LOCK_SH
	if w.sole() {
		how = syscall.LOCK_EX
	}
	if err := syscall.Flock(int(w.ownerF.Fd()), how|syscall.LOCK_NB); err != nil {
		return fmt.Errorf("store: %s is open elsewhere (a directory takes one sole owner or any number of replicas): %w", w.dir, err)
	}
	if w.sole() {
		// sweep temp files orphaned by a crash mid temp+fsync+rename: only a
		// sole owner knows no writer is live, so any *.tmp is dead by
		// definition (the spill GC only ever matches completed .ckpt names
		// and would keep them forever)
		if entries, err := os.ReadDir(w.dir); err == nil {
			for _, e := range entries {
				if strings.HasSuffix(e.Name(), ".tmp") {
					_ = os.Remove(filepath.Join(w.dir, e.Name()))
				}
			}
		}
	}
	if w.lockF, err = os.OpenFile(filepath.Join(w.dir, lockName), os.O_CREATE|os.O_RDWR, 0o644); err != nil {
		return fmt.Errorf("store: open lock: %w", err)
	}
	if err := w.flock(); err != nil {
		return err
	}
	defer w.funlock()
	path := filepath.Join(w.dir, walName)
	if w.f, err = os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644); err != nil {
		return fmt.Errorf("store: open %s: %w", path, err)
	}
	fi, err := w.f.Stat()
	if err != nil {
		return fmt.Errorf("store: stat %s: %w", path, err)
	}
	if fi.Size() == 0 {
		if _, err := w.f.WriteAt(walMagic, 0); err != nil {
			return fmt.Errorf("store: init %s: %w", path, err)
		}
		if err := w.syncLog(); err != nil {
			return err
		}
	} else if err := w.checkMagic(); err != nil {
		return err
	}
	w.off = magicLen
	if err := w.scanTailLocked(fi.Size()); err != nil {
		return err
	}
	w.replayed = int64(len(w.records))
	walReplayed.Add(w.replayed)
	walSize.SetInt(w.off)
	return nil
}

// closeFiles closes whatever the handle has open, dropping its locks with
// them; the error is the log's.
func (w *WAL) closeFiles() (err error) {
	if w.f != nil {
		err = w.f.Close()
	}
	if w.lockF != nil {
		_ = w.lockF.Close()
	}
	if w.ownerF != nil {
		_ = w.ownerF.Close()
	}
	return err
}

// die marks the handle dead — every later operation returns ErrClosed — and
// drops its owner lock, as the process death it stands for would.
func (w *WAL) die() {
	w.dead = true
	_ = syscall.Flock(int(w.ownerF.Fd()), syscall.LOCK_UN)
}

// flock takes the exclusive cross-handle lock; funlock releases it. Each
// handle has its own open file description, so two in-process replicas
// exclude each other exactly like two processes would.
func (w *WAL) flock() error {
	if err := syscall.Flock(int(w.lockF.Fd()), syscall.LOCK_EX); err != nil {
		return fmt.Errorf("store: flock: %w", err)
	}
	return nil
}

func (w *WAL) funlock() { _ = syscall.Flock(int(w.lockF.Fd()), syscall.LOCK_UN) }

// enter is how every operation on the log starts: take the handle mutex and
// the cross-handle flock, and bring the cached view up to date. The
// returned func releases both.
func (w *WAL) enter() (leave func(), err error) {
	w.mu.Lock()
	if w.dead || w.closed {
		err = ErrClosed
	} else if err = w.flock(); err == nil {
		if err = w.refreshLocked(); err == nil {
			return func() { w.funlock(); w.mu.Unlock() }, nil
		}
		w.funlock()
	}
	w.mu.Unlock()
	return nil, err
}

func (w *WAL) checkMagic() error {
	head := make([]byte, magicLen)
	if _, err := w.f.ReadAt(head, 0); err != nil || !bytes.Equal(head, walMagic) {
		return fmt.Errorf("store: %s is not a WAL (bad magic)", filepath.Join(w.dir, walName))
	}
	return nil
}

// refreshLocked brings the cached view up to date. Must hold mu and the
// flock. Detects a compaction swap (another replica renamed a rewritten
// log over ours) by inode comparison and restarts the view from byte 0;
// then scans any unread tail.
func (w *WAL) refreshLocked() error {
	path := filepath.Join(w.dir, walName)
	dfi, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("store: refresh stat: %w", err)
	}
	ffi, err := w.f.Stat()
	if err != nil {
		return fmt.Errorf("store: refresh fstat: %w", err)
	}
	size := ffi.Size()
	if !os.SameFile(dfi, ffi) {
		nf, err := os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("store: reopen after compaction: %w", err)
		}
		_ = w.f.Close()
		w.f = nf
		if err := w.checkMagic(); err != nil {
			return err
		}
		// dfi describes nf: under the flock no rename can land between the
		// stat and the open
		size = dfi.Size()
		w.off = magicLen
		w.seq = 0
		w.gen++
		w.records = w.records[:0]
		w.lt = newLeaseTable()
	}
	return w.scanTailLocked(size)
}

// scanTailLocked decodes records from w.off to size (the log's length, as
// the caller just stat'ed it under the flock), folding them into the cached
// view. A torn or corrupt tail (a writer died mid-append) is truncated —
// safe because the flock is held, so no live writer is past it.
func (w *WAL) scanTailLocked(size int64) error {
	if size <= w.off {
		return nil
	}
	data := make([]byte, size-w.off)
	if _, err := w.f.ReadAt(data, w.off); err != nil {
		return fmt.Errorf("store: tail read: %w", err)
	}
	o := 0
	for o < len(data) {
		rec, n, err := decodeRecord(data[o:])
		if err != nil || rec.Seq != w.seq+1 {
			// decode failure or a sequence break: appends number records
			// contiguously from 1, so either way the log is damaged here —
			// cut the tail and stop
			if err := w.f.Truncate(w.off + int64(o)); err != nil {
				return fmt.Errorf("store: truncate torn tail: %w", err)
			}
			if err := w.syncLog(); err != nil {
				return err
			}
			w.truncated = true
			walTruncations.Inc()
			break
		}
		w.records = append(w.records, rec)
		w.lt.apply(&rec)
		w.seq = rec.Seq
		o += n
	}
	w.off += int64(o)
	return nil
}

// syncFile fsyncs f (unless NoSync) and accounts the latency.
func (w *WAL) syncFile(f *os.File) error {
	if w.opts.NoSync {
		return nil
	}
	start := time.Now()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: fsync: %w", err)
	}
	w.fsyncs++
	w.fsyncNS += time.Since(start).Nanoseconds()
	walFsyncLat.ObserveSince(start)
	return nil
}

func (w *WAL) syncLog() error { return w.syncFile(w.f) }

// appendRecLocked durably writes one record at the tail of the refreshed
// view and folds it into the caches. Fencing is the caller's concern.
// Nothing — seq, offset, caches — advances until the frame is durable: a
// failed write or fsync unwinds the file back to the pre-append tail, so
// seq numbering stays contiguous with the durable log and the next append
// cannot be mistaken for a torn tail by peer replicas.
func (w *WAL) appendRecLocked(rec *Record) error {
	start := time.Now()
	rec.Seq = w.seq + 1
	if rec.Time == 0 {
		rec.Time = start.UnixNano()
	}
	w.buf = rec.encode(w.buf[:0])
	frame := w.buf
	if w.armed {
		if w.failAfter <= 0 {
			// failpoint: tear this append mid-record and die (kill -9
			// between write and ack); the next handle to take the lock
			// truncates the torn tail
			torn := frame[:len(frame)/2]
			_, _ = w.f.WriteAt(torn, w.off)
			w.die()
			return ErrClosed
		}
		w.failAfter--
	}
	if err := w.writeFrameLocked(frame); err != nil {
		w.unwindAppendLocked()
		return err
	}
	w.seq = rec.Seq
	w.off += int64(len(frame))
	w.records = append(w.records, *rec)
	w.lt.apply(rec)
	w.appends++
	w.sinceCompact++
	walAppends.Inc()
	walAppendLat.ObserveSince(start)
	walSize.SetInt(w.off)
	return nil
}

// writeFrameLocked lands one encoded frame durably at the validated tail.
func (w *WAL) writeFrameLocked(frame []byte) error {
	if w.failTransient {
		// transient failpoint: half the frame lands before the write errors
		// (ENOSPC-style); unlike the crash failpoint the handle survives
		w.failTransient = false
		_, _ = w.f.WriteAt(frame[:len(frame)/2], w.off)
		return fmt.Errorf("store: append: injected transient write failure")
	}
	if _, err := w.f.WriteAt(frame, w.off); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	return w.syncLog()
}

// unwindAppendLocked restores the log file to the validated tail (w.off)
// after a failed append, discarding any partially-written frame. If even
// the truncate cannot be made durable the handle goes dead — its view can
// no longer be trusted, and the flock holder that follows will cut any
// torn bytes on refresh.
func (w *WAL) unwindAppendLocked() {
	if err := w.f.Truncate(w.off); err != nil {
		w.die()
		return
	}
	if err := w.syncLog(); err != nil {
		w.die()
	}
}

// Dir returns the store directory.
func (w *WAL) Dir() string { return w.dir }

// Replica returns the handle's replica ID ("" for a sole owner).
func (w *WAL) Replica() string { return w.replica }

// sole reports whether Open, not OpenShared, handed the handle out.
func (w *WAL) sole() bool { return w.replica == "" }

// Replay streams the current log from the top (ReplaySince from the zero
// Watermark).
func (w *WAL) Replay(fn func(Record) error) error {
	_, err := w.ReplaySince(Watermark{}, fn)
	return err
}

// Append durably logs one record — frame (with CRC) written and fsynced
// before returning, rec.Seq assigned here — fencing ownership-asserting
// records against the live lease table (ErrFenced for stale owners).
func (w *WAL) Append(rec *Record) error {
	leave, err := w.enter()
	if err != nil {
		return err
	}
	defer leave()
	if err := w.lt.fence(rec, time.Now()); err != nil {
		w.fenced++
		walFencedAppends.Inc()
		return err
	}
	if err := w.appendRecLocked(rec); err != nil {
		return err
	}
	if w.opts.CompactEvery > 0 && w.sinceCompact >= int64(w.opts.CompactEvery) {
		// a replica compacts itself (Open disables this: a sole owner's
		// scheduler drives compaction). Best effort: a failed rewrite
		// leaves the (complete) old log
		_ = w.install(w.foldSnapshot())
	}
	return nil
}

// Claim acquires the job's lease for this replica via the claim CAS: free,
// expired, or self-held leases are claimable (epoch bumps past every epoch
// ever observed); a live foreign lease fails with ErrLeaseHeld.
func (w *WAL) Claim(job, owner string, ttl time.Duration) (Lease, error) {
	leave, err := w.enter()
	if err != nil {
		return Lease{}, err
	}
	defer leave()
	l, err := w.lt.claim(job, owner, ttl, time.Now())
	if err != nil {
		return Lease{}, err
	}
	rec := &Record{Type: TypeClaimed, Job: job, Owner: l.Owner, Epoch: l.Epoch, ExpiresAt: l.ExpiresAt}
	if err := w.appendRecLocked(rec); err != nil {
		return Lease{}, err
	}
	w.claims++
	walLeaseClaims.Inc()
	return l, nil
}

// Renew extends this replica's live lease; ErrFenced when the lease
// expired or was superseded (the caller must stop acting as owner and
// re-claim).
func (w *WAL) Renew(job, owner string, epoch int64, ttl time.Duration) (Lease, error) {
	leave, err := w.enter()
	if err != nil {
		return Lease{}, err
	}
	defer leave()
	l, err := w.lt.renew(job, owner, epoch, ttl, time.Now())
	if err != nil {
		w.fenced++
		walFencedAppends.Inc()
		return Lease{}, err
	}
	rec := &Record{Type: TypeRenewed, Job: job, Owner: owner, Epoch: epoch, ExpiresAt: l.ExpiresAt}
	if err := w.appendRecLocked(rec); err != nil {
		return Lease{}, err
	}
	w.renews++
	walLeaseRenewals.Inc()
	return l, nil
}

// Release ends this replica's lease. Releasing a lease the table no longer
// holds is a no-op; a mismatched live lease is ErrFenced.
func (w *WAL) Release(job, owner string, epoch int64) error {
	leave, err := w.enter()
	if err != nil {
		return err
	}
	defer leave()
	_, held, err := w.lt.release(job, owner, epoch)
	if err != nil {
		w.fenced++
		walFencedAppends.Inc()
		return err
	}
	if !held {
		return nil
	}
	return w.appendRecLocked(&Record{Type: TypeReleased, Job: job, Owner: owner, Epoch: epoch})
}

// Leases snapshots the lease table (expired entries included — they are
// the orphans an adopter scans for).
func (w *WAL) Leases() ([]Lease, error) {
	leave, err := w.enter()
	if err != nil {
		return nil, err
	}
	defer leave()
	return w.lt.snapshot(), nil
}

// ReplaySince streams records appended after the watermark; a compaction
// swap bumps the generation and the rewritten log replays from its top.
func (w *WAL) ReplaySince(wm Watermark, fn func(Record) error) (Watermark, error) {
	leave, err := w.enter()
	if err != nil {
		return wm, err
	}
	from := 0
	if wm.Gen == w.gen && wm.Seq <= uint64(len(w.records)) {
		from = int(wm.Seq)
	}
	recs := append([]Record(nil), w.records[from:]...)
	out := Watermark{Gen: w.gen, Seq: w.seq}
	leave()
	for _, r := range recs {
		if err := fn(r); err != nil {
			return wm, err
		}
	}
	return out, nil
}

// SaveCheckpoint durably spills cp keyed by (job, dispatchSeq); see
// saveSpill for the protocol. Spills need no flock: job IDs are
// replica-unique at submission and lease-owned afterwards, so two replicas
// never spill the same job concurrently.
func (w *WAL) SaveCheckpoint(job string, dispatchSeq int64, cp *opt.Checkpoint) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead || w.closed {
		return ErrClosed
	}
	if err := saveSpill(w.dir, job, dispatchSeq, cp, w.syncFile); err != nil {
		return err
	}
	w.spills++
	walSpills.Inc()
	return nil
}

// LoadCheckpoint loads the spill keyed by (job, dispatchSeq).
func (w *WAL) LoadCheckpoint(job string, dispatchSeq int64) (*opt.Checkpoint, error) {
	return loadSpill(w.dir, job, dispatchSeq)
}

// DropJob removes all spilled checkpoints of a terminal job.
func (w *WAL) DropJob(job string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead || w.closed {
		return ErrClosed
	}
	sweepSpills(w.dir, func(j, _ string) bool { return j == job })
	return nil
}

// Compact atomically replaces the log (see install). A sole owner installs
// the caller's snapshot. A replica IGNORES it: its caller misses every job
// other replicas own, so compacting to it would destroy cluster state; it
// installs the snapshot the log itself folds to instead.
func (w *WAL) Compact(snapshot []*Record) error {
	leave, err := w.enter()
	if err != nil {
		return err
	}
	defer leave()
	if !w.sole() {
		snapshot = w.foldSnapshot()
	}
	return w.install(snapshot)
}

// foldSnapshot is the log's own compaction snapshot: every job as the
// Records of its lifecycle fold (terminal jobs bounded to the RetainTerminal
// most recent), then the lease table re-serialized so claims and epoch
// high-waters outlive the rewrite.
func (w *WAL) foldSnapshot() []*Record {
	// jobs in order of first appearance, so the rewrite is deterministic
	var order, terminalJobs []string
	seen := map[string]bool{}
	for i := range w.records {
		job := w.records[i].Job
		if st := w.lt.jobs[job]; st != nil && !seen[job] {
			seen[job] = true
			order = append(order, job)
			if st.Phase.Terminal() {
				terminalJobs = append(terminalJobs, job)
			}
		}
	}
	// bound terminal history: most recent RetainTerminal finish times win
	drop := map[string]bool{}
	if over := len(terminalJobs) - w.opts.RetainTerminal; over > 0 {
		sort.SliceStable(terminalJobs, func(i, j int) bool {
			return w.lt.jobs[terminalJobs[i]].Finished < w.lt.jobs[terminalJobs[j]].Finished
		})
		for _, job := range terminalJobs[:over] {
			drop[job] = true
		}
	}
	var snapshot []*Record
	for _, job := range order {
		if !drop[job] {
			snapshot = append(snapshot, w.lt.jobs[job].Records(job)...)
		}
	}
	return append(snapshot, w.lt.snapshotRecords(time.Now().UnixNano())...)
}

// install atomically rewrites the log to snapshot (see rewriteLog) and
// restarts the view from it, exactly as a peer's will when it detects the
// swap by inode change on its next refresh: jobs the snapshot leaves out
// leave the fold with their records. Must hold mu and the flock.
func (w *WAL) install(snapshot []*Record) error {
	nf, buf, err := rewriteLog(w.dir, snapshot, w.buf, w.syncFile)
	if err != nil {
		return err
	}
	_ = w.f.Close()
	w.f, w.buf = nf, buf[:0]
	w.records = make([]Record, 0, len(snapshot))
	w.lt = newLeaseTable()
	for _, rec := range snapshot {
		w.records = append(w.records, *rec)
		w.lt.apply(rec)
	}
	w.gen++
	w.seq = uint64(len(snapshot))
	w.off = int64(len(buf))
	w.sinceCompact = 0
	w.compactions++
	w.appends += int64(len(snapshot))
	walCompactions.Inc()
	walAppends.Add(int64(len(snapshot)))
	walSize.SetInt(w.off)
	return nil
}

// rewriteLog atomically replaces dir's log with snapshot, re-sequenced
// from 1: a fresh temp log is written, synced and renamed over wal.log, so
// a crash anywhere leaves either the complete old log or the complete new
// one; spills of jobs the new log no longer mentions are then deleted. It
// returns the new log and its bytes (in buf, reused).
func rewriteLog(dir string, snapshot []*Record, buf []byte, sync func(*os.File) error) (*os.File, []byte, error) {
	tmp := filepath.Join(dir, walName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, buf, fmt.Errorf("store: compact: %w", err)
	}
	buf = append(buf[:0], walMagic...)
	keep := make(map[string]bool, len(snapshot))
	for i, rec := range snapshot {
		rec.Seq = uint64(i + 1)
		buf = rec.encode(buf)
		keep[rec.Job] = true
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return nil, buf, fmt.Errorf("store: compact: %w", err)
	}
	if err := sync(f); err != nil {
		f.Close()
		return nil, buf, err
	}
	if err := f.Close(); err != nil {
		return nil, buf, fmt.Errorf("store: compact: %w", err)
	}
	path := filepath.Join(dir, walName)
	if err := os.Rename(tmp, path); err != nil {
		return nil, buf, fmt.Errorf("store: compact: %w", err)
	}
	nf, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, buf, fmt.Errorf("store: compact reopen: %w", err)
	}
	sweepSpills(dir, func(j, _ string) bool { return !keep[j] })
	return nf, buf, nil
}

// Sync fsyncs the log (graceful-shutdown flush).
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead || w.closed {
		return ErrClosed
	}
	return w.syncLog()
}

// Metrics snapshots the counters.
func (w *WAL) Metrics() Metrics {
	w.mu.Lock()
	defer w.mu.Unlock()
	return Metrics{
		Appends:             w.appends,
		AppendsSinceCompact: w.sinceCompact,
		Fsyncs:              w.fsyncs,
		FsyncTotal:          time.Duration(w.fsyncNS),
		SizeBytes:           w.off,
		Compactions:         w.compactions,
		CheckpointSpills:    w.spills,
		ReplayedRecords:     w.replayed,
		TruncatedTail:       w.truncated,
		LeaseClaims:         w.claims,
		LeaseRenewals:       w.renews,
		LeasesHeld:          int64(len(w.lt.leases)),
		FencedAppends:       w.fenced,
	}
}

// Close releases the handle's files and with them its owner lock. The log
// stays readable on disk, and live for any other replica.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	return w.closeFiles()
}

// FailAfterAppends arms the crash failpoint: the next n appends succeed,
// then the following one tears mid-record and this handle goes dead (every
// later mutation returns ErrClosed) — the closest a test can get to kill -9
// without a subprocess. Whoever takes the lock next — a surviving replica's
// refresh, or the next open — truncates the torn tail. Testing hook.
func (w *WAL) FailAfterAppends(n int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.armed = true
	w.failAfter = n
}

// FailNextAppendTransient arms a one-shot transient append failure: half
// the next frame lands before the write errors, but the handle survives
// (unlike FailAfterAppends) — exercising the rollback that keeps seq
// numbering contiguous with the durable log. Testing hook.
func (w *WAL) FailNextAppendTransient() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.failTransient = true
}

// Kill makes this handle drop every subsequent mutation (ErrClosed)
// without tearing the log — a process death at a record boundary. Testing
// hook.
func (w *WAL) Kill() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.die()
}
