package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/opt"
)

// The spill-file protocol the file-backed stores share: one
// cp-<job>-<dispatchSeq>.ckpt per capture, written temp → fsync → rename,
// the newest replacing the job's older ones.

// ckptName builds the spill filename for (job, dispatchSeq). Job IDs are
// scheduler-generated ("job-000042"); anything path-like is rejected.
func ckptName(job string, dispatchSeq int64) (string, error) {
	if job == "" || strings.ContainsAny(job, "/\\:*?\"<>|") || strings.Contains(job, "..") {
		return "", fmt.Errorf("store: invalid job id %q", job)
	}
	return fmt.Sprintf("cp-%s-%d.ckpt", job, dispatchSeq), nil
}

// saveSpill durably writes cp as dir's spill for (job, dispatchSeq) — temp
// file, sync (the store's own fsync, which honours NoSync and accounts the
// latency), rename into place — then removes the job's older spills. The
// caller appends the record that references the spill only after this
// returns, so the log never names a spill that is not on disk.
func saveSpill(dir, job string, dispatchSeq int64, cp *opt.Checkpoint, sync func(*os.File) error) error {
	name, err := ckptName(job, dispatchSeq)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := opt.SaveCheckpoint(&buf, cp); err != nil {
		return fmt.Errorf("store: spill %s: %w", job, err)
	}
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: spill %s: %w", job, err)
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		return fmt.Errorf("store: spill %s: %w", job, err)
	}
	if err := sync(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: spill %s: %w", job, err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return fmt.Errorf("store: spill %s: %w", job, err)
	}
	sweepSpills(dir, func(j, n string) bool { return j == job && n != name })
	return nil
}

// loadSpill loads dir's spill keyed by (job, dispatchSeq).
func loadSpill(dir, job string, dispatchSeq int64) (*opt.Checkpoint, error) {
	name, err := ckptName(job, dispatchSeq)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		return nil, fmt.Errorf("store: load checkpoint %s@%d: %w", job, dispatchSeq, err)
	}
	defer f.Close()
	return opt.LoadCheckpoint(f)
}

// sweepSpills removes every spill file in dir that drop selects, by the job
// it belongs to and its file name.
func sweepSpills(dir string, drop func(job, name string) bool) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		n := e.Name()
		if !strings.HasPrefix(n, "cp-") || !strings.HasSuffix(n, ".ckpt") {
			continue
		}
		job := strings.TrimSuffix(strings.TrimPrefix(n, "cp-"), ".ckpt")
		if i := strings.LastIndexByte(job, '-'); i > 0 {
			job = job[:i]
		}
		if drop(job, n) {
			_ = os.Remove(filepath.Join(dir, n))
		}
	}
}
