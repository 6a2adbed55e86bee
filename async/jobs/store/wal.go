package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/opt"
)

// Options configure a WAL.
type Options struct {
	// NoSync skips the per-append fsync (tests and benchmarks; a real
	// daemon should leave it off — the append-before-ack invariant is only
	// as strong as the sync under it).
	NoSync bool
}

// WAL is the file-backed Store: one wal.log of CRC-framed records plus
// per-job checkpoint spill files, all inside one directory owned by a
// single scheduler process.
type WAL struct {
	mu     sync.Mutex
	dir    string
	f      *os.File
	noSync bool
	seq    uint64
	buf    []byte // reused frame-encode scratch

	// recovered state from Open, consumed by Replay
	records   []Record
	truncated bool

	// metrics (guarded by mu)
	appends, sinceCompact int64
	fsyncs                int64
	fsyncNS               int64
	size                  int64
	compactions           int64
	spills                int64

	// failpoints (tests): failAfter counts down on each append; at zero the
	// append tears mid-record and the WAL goes dead — exactly what kill -9
	// between write and ack looks like. dead makes every later mutation
	// return ErrClosed.
	failAfter int64
	armed     bool
	dead      bool
	closed    bool
}

const walName = "wal.log"

// Open recovers the log in dir (created if missing): it scans wal.log,
// keeps the longest valid prefix of records, truncates any torn or corrupt
// tail, and positions the file for appending. The recovered records are
// consumed through Replay.
func Open(dir string, opts Options) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	// sweep temp files orphaned by a crash mid temp+fsync+rename: no writer
	// is live at Open, so any *.tmp is dead by definition (the spill GC only
	// ever matches completed .ckpt names and would keep them forever)
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".tmp") {
				_ = os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
	path := filepath.Join(dir, walName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", path, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: read %s: %w", path, err)
	}
	w := &WAL{dir: dir, f: f, noSync: opts.NoSync}
	validEnd := 0
	switch {
	case len(data) == 0:
		// fresh log: write the magic header
		if _, err := f.Write(walMagic); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: init %s: %w", path, err)
		}
		if err := w.syncFile(f); err != nil {
			f.Close()
			return nil, err
		}
		validEnd = len(walMagic)
	case !bytes.HasPrefix(data, walMagic):
		f.Close()
		return nil, fmt.Errorf("store: %s is not a WAL (bad magic)", path)
	default:
		validEnd = len(walMagic)
		for off := validEnd; off < len(data); {
			rec, n, err := decodeRecord(data[off:])
			if err != nil || rec.Seq != w.seq+1 {
				// decode failure or a sequence break: Append numbers records
				// contiguously from 1, so either way the log is damaged here
				// and the valid prefix ends
				w.truncated = true
				break
			}
			w.records = append(w.records, rec)
			w.seq = rec.Seq
			off += n
			validEnd = off
		}
	}
	if validEnd < len(data) {
		if err := f.Truncate(int64(validEnd)); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: truncate torn tail of %s: %w", path, err)
		}
		if err := w.syncFile(f); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(int64(validEnd), 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: seek %s: %w", path, err)
	}
	w.size = int64(validEnd)
	w.sinceCompact = int64(len(w.records))
	walReplayed.Add(int64(len(w.records)))
	if w.truncated {
		walTruncations.Inc()
	}
	walSize.SetInt(w.size)
	return w, nil
}

// Dir returns the store directory.
func (w *WAL) Dir() string { return w.dir }

// Replay streams the records Open recovered, in log order.
func (w *WAL) Replay(fn func(Record) error) error {
	w.mu.Lock()
	recs := w.records
	w.mu.Unlock()
	for _, r := range recs {
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

// Append durably logs one record: frame (with CRC) written, flushed, and
// fsynced before returning. The record's Seq is assigned here.
func (w *WAL) Append(rec *Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead || w.closed {
		return ErrClosed
	}
	start := time.Now()
	w.seq++
	rec.Seq = w.seq
	w.buf = rec.encode(w.buf[:0])
	frame := w.buf
	if w.armed {
		if w.failAfter <= 0 {
			// failpoint: tear this append mid-record and die, simulating
			// kill -9 between the write syscall and the ack
			torn := frame[:len(frame)/2]
			_, _ = w.f.Write(torn)
			w.size += int64(len(torn))
			w.dead = true
			return ErrClosed
		}
		w.failAfter--
	}
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	w.size += int64(len(frame))
	if err := w.syncFile(w.f); err != nil {
		return err
	}
	w.appends++
	w.sinceCompact++
	walAppends.Inc()
	walAppendLat.ObserveSince(start)
	walSize.SetInt(w.size)
	return nil
}

// syncFile fsyncs f (unless NoSync) and accounts the latency.
func (w *WAL) syncFile(f *os.File) error {
	if w.noSync {
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

// SaveCheckpoint durably spills cp keyed by (job, dispatchSeq); see
// saveSpill for the protocol.
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

// Compact atomically replaces the log with snapshot (see rewriteLog).
func (w *WAL) Compact(snapshot []*Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead || w.closed {
		return ErrClosed
	}
	nf, buf, err := rewriteLog(w.dir, snapshot, w.buf, w.syncFile)
	if err != nil {
		return err
	}
	_ = w.f.Close()
	w.f, w.buf = nf, buf[:0]
	w.seq = uint64(len(snapshot))
	w.size = int64(len(buf))
	w.sinceCompact = 0
	w.compactions++
	w.appends += int64(len(snapshot))
	walCompactions.Inc()
	walAppends.Add(int64(len(snapshot)))
	walSize.SetInt(w.size)
	return nil
}

// rewriteLog atomically replaces dir's log with snapshot, re-sequenced
// from 1: a fresh temp log is written, synced and renamed over wal.log, so
// a crash anywhere leaves either the complete old log or the complete new
// one; spills of jobs the new log no longer mentions are then deleted. It
// returns the new log, positioned for appending, and its bytes (in buf,
// reused).
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
	if _, err := nf.Seek(0, 2); err != nil {
		nf.Close()
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
	return w.syncFile(w.f)
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
		SizeBytes:           w.size,
		Compactions:         w.compactions,
		CheckpointSpills:    w.spills,
		ReplayedRecords:     int64(len(w.records)),
		TruncatedTail:       w.truncated,
	}
}

// Close releases the log file. The WAL stays readable on disk.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	return w.f.Close()
}

// FailAfterAppends arms the crash failpoint: the next n appends succeed,
// then the following one is torn mid-record and the store goes dead
// (every later mutation returns ErrClosed) — the closest a test can get to
// kill -9 without a subprocess. Testing hook.
func (w *WAL) FailAfterAppends(n int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.armed = true
	w.failAfter = n
}

// Kill makes the store drop every subsequent mutation (returning
// ErrClosed) without tearing the log — simulating a process death at a
// record boundary. Testing hook.
func (w *WAL) Kill() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.dead = true
}
