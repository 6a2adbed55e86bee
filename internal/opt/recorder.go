package opt

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/dataset"
	"repro/internal/la"
	"repro/internal/metrics"
)

// snapshot is a timestamped copy of the model; errors are computed after
// the run so objective evaluation never perturbs the timing being measured.
type snapshot struct {
	elapsed time.Duration
	updates int64
	w       la.Vec
}

// Progress is one in-run progress sample, delivered through a ProgressFunc
// every time the recorder takes a snapshot. W is the snapshot's own copy of
// the model: receivers may read or retain it but must not mutate it (the
// trace is resolved from the same backing array after the run).
type Progress struct {
	Updates int64
	Elapsed time.Duration
	Final   bool // true for the Finish snapshot
	W       la.Vec
}

// ProgressFunc receives in-run progress samples. It is called synchronously
// on the driver goroutine, so implementations should be quick or hand off.
type ProgressFunc func(Progress)

// ErrDiverged marks a run whose model left the finite floats: the step size,
// damping or block size is too aggressive for the problem. Running the same
// job again diverges again.
var ErrDiverged = errors.New("model diverged")

// Recorder captures model snapshots every `every` updates (plus the first
// and the moment Finish is called).
type Recorder struct {
	start      time.Time
	every      int
	snaps      []snapshot
	total      time.Duration
	onProgress ProgressFunc
	err        error // first non-finite snapshot, wrapping ErrDiverged
}

// NewRecorder starts the clock. every <= 0 disables periodic snapshots
// (only start/finish are kept).
func NewRecorder(every int) *Recorder {
	return &Recorder{start: time.Now(), every: every}
}

// Notify registers fn to observe every snapshot as it is taken — the hook
// solvers use to report per-epoch progress to a supervising layer (e.g. the
// job scheduler) without waiting for the final Result. nil is allowed.
func (r *Recorder) Notify(fn ProgressFunc) { r.onProgress = fn }

func (r *Recorder) record(elapsed time.Duration, updates int64, w la.Vec, final bool) {
	wc := w.Clone()
	if r.err == nil {
		for j, x := range wc {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				r.err = fmt.Errorf("%w: coordinate %d of %d is %v in the snapshot after %d updates", ErrDiverged, j, len(wc), x, updates)
				break
			}
		}
	}
	r.snaps = append(r.snaps, snapshot{elapsed, updates, wc})
	if r.onProgress != nil {
		r.onProgress(Progress{Updates: updates, Elapsed: elapsed, Final: final, W: wc})
	}
}

// Err reports the first recorded snapshot that held a non-finite
// coordinate, or nil. The run loop checks it after every snapshot, so a
// diverged run ends with an error instead of a trace of NaNs.
func (r *Recorder) Err() error { return r.err }

// Due reports whether Maybe(updates, …) would record a snapshot — drivers
// with lazily deferred update terms check it so they settle the model only
// when a snapshot will actually read it.
func (r *Recorder) Due(updates int64) bool {
	return r.every > 0 && updates%int64(r.every) == 0
}

// Maybe records a snapshot if the update count hits the cadence.
func (r *Recorder) Maybe(updates int64, w la.Vec) {
	if r.every > 0 && updates%int64(r.every) == 0 {
		r.record(time.Since(r.start), updates, w, false)
	}
}

// Force records a snapshot unconditionally.
func (r *Recorder) Force(updates int64, w la.Vec) {
	r.record(time.Since(r.start), updates, w, false)
}

// Finish stamps the total duration and records the final model.
func (r *Recorder) Finish(updates int64, w la.Vec) {
	r.total = time.Since(r.start)
	r.record(r.total, updates, w, true)
}

// Resolve evaluates every snapshot against the dataset and reference
// optimum, producing the convergence trace.
func (r *Recorder) Resolve(d *dataset.Dataset, loss Loss, fstar float64) []metrics.TracePoint {
	pts := make([]metrics.TracePoint, 0, len(r.snaps))
	for _, s := range r.snaps {
		pts = append(pts, metrics.TracePoint{
			Time:    s.elapsed,
			Updates: s.updates,
			Error:   Objective(d, loss, s.w) - fstar,
		})
	}
	return pts
}

// Total returns the stamped run duration.
func (r *Recorder) Total() time.Duration { return r.total }

// recorder builds a run's snapshot recorder with the params' progress hook
// already attached, so every solver reports through the same channel.
func (p *Params) recorder() *Recorder {
	r := NewRecorder(p.SnapshotEvery)
	r.Notify(p.OnProgress)
	return r
}
