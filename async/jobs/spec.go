package jobs

import (
	"fmt"
	"strings"

	"repro/async"
	"repro/internal/dataset"
	"repro/internal/opt"
)

// DatasetSpec names a synthetic dataset from the catalog
// (dataset.CatalogNames): rcv1-like, mnist8m-like, epsilon-like.
type DatasetSpec struct {
	Name string `json:"name"`
	// Scale is tiny (default), small, or full.
	Scale string `json:"scale,omitempty"`
	// Seed defaults to 1; jobs with equal (name, scale, seed) share one
	// generated dataset, which is what dataset-affinity routing keys on.
	Seed int64 `json:"seed,omitempty"`
}

// Key is the affinity/cache key: jobs with equal keys run against the same
// in-memory dataset.
func (d DatasetSpec) Key() string {
	return fmt.Sprintf("%s@%s#%d", strings.ToLower(d.Name), d.Scale, d.Seed)
}

func (d *DatasetSpec) normalize() error {
	if d.Name == "" {
		return fmt.Errorf("jobs: dataset name is required (known: %s)",
			strings.Join(dataset.CatalogNames(), ", "))
	}
	sc, err := dataset.ParseScale(d.Scale)
	if err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	d.Scale = dataset.ScaleName(sc)
	if d.Seed == 0 {
		d.Seed = 1
	}
	if _, err := dataset.ByName(d.Name, sc, d.Seed); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	return nil
}

// config resolves the generator configuration.
func (d DatasetSpec) config() (dataset.SynthConfig, error) {
	sc, err := dataset.ParseScale(d.Scale)
	if err != nil {
		return dataset.SynthConfig{}, err
	}
	return dataset.ByName(d.Name, sc, d.Seed)
}

// BarrierSpec selects the per-job barrier-control policy. The zero value
// inherits the engine default (ASP unless configured otherwise).
type BarrierSpec struct {
	// Kind is asp, bsp, or ssp ("" = engine default).
	Kind string `json:"kind,omitempty"`
	// Staleness is the SSP bound; required for kind ssp.
	Staleness int64 `json:"staleness,omitempty"`
}

func (b BarrierSpec) barrier() (async.Barrier, error) {
	switch strings.ToLower(b.Kind) {
	case "":
		return nil, nil
	case "asp":
		return async.ASP(), nil
	case "bsp":
		return async.BSP(), nil
	case "ssp":
		if b.Staleness <= 0 {
			return nil, fmt.Errorf("jobs: ssp barrier needs a positive staleness bound, got %d", b.Staleness)
		}
		return async.SSP(b.Staleness), nil
	default:
		return nil, fmt.Errorf("jobs: unknown barrier kind %q (asp, bsp, ssp)", b.Kind)
	}
}

// StepSpec selects the step-size schedule. The zero value is
// invsqrt(0.05) scaled down by the engine's worker count — the paper's
// heuristic for asynchronous variants.
type StepSpec struct {
	// Kind is const, invsqrt, or async ("" = invsqrt).
	Kind string `json:"kind,omitempty"`
	// A is the base step size (default 0.05).
	A float64 `json:"a,omitempty"`
	// Factor divides the schedule (Scaled); 0 applies the default
	// worker-count scaling for invsqrt and none for const.
	Factor float64 `json:"factor,omitempty"`
}

func (st StepSpec) schedule(workers int) (opt.Schedule, error) {
	a := st.A
	if a == 0 {
		a = 0.05
	}
	if a < 0 {
		return nil, fmt.Errorf("jobs: step a %v must be positive", a)
	}
	if st.Factor < 0 {
		return nil, fmt.Errorf("jobs: step factor %v must be non-negative", st.Factor)
	}
	var base opt.Schedule
	scale := st.Factor
	switch strings.ToLower(st.Kind) {
	case "const":
		base = opt.Constant{A: a}
	case "", "invsqrt":
		base = opt.InvSqrt{A: a}
		if scale == 0 {
			scale = float64(workers)
		}
	case "async":
		// AsyncDecay embeds its own worker-count scaling; an explicit
		// Factor still divides uniformly like for the other kinds
		base = opt.AsyncDecay{A: a, Workers: float64(workers)}
	default:
		return nil, fmt.Errorf("jobs: unknown step kind %q (const, invsqrt, async)", st.Kind)
	}
	if scale > 0 && scale != 1 {
		base = opt.Scaled{Base: base, Factor: scale}
	}
	return base, nil
}

// Spec declaratively describes one optimization job. Zero values take the
// documented defaults, so the minimal request is an algorithm plus a
// dataset name.
type Spec struct {
	// Algorithm is any solver resolvable by the registry (async.Solvers).
	Algorithm string      `json:"algorithm"`
	Dataset   DatasetSpec `json:"dataset"`
	Barrier   BarrierSpec `json:"barrier,omitzero"`
	Step      StepSpec    `json:"step,omitzero"`

	// Objective is the structured composite objective: a named loss
	// (least-squares default, logistic) plus optional l2 (ridge) and l1
	// (sparsity) penalties. Submission rejects an objective the chosen
	// solver cannot optimize faithfully (opt.Accepts: an ℓ1 term needs a
	// proximal step; some solvers hardwire plain least squares).
	Objective async.Objective `json:"objective,omitzero"`

	// Loss is the deprecated flat alias for Objective.Loss, kept for
	// pre-objective clients; setting both to different losses is an error.
	Loss string `json:"loss,omitempty"`
	// Mode selects the block-selection order of a coordinate solver, e.g.
	// greedy (Gauss-Southwell via the driver-side MaxIP index, with
	// verified-or-fallback semantics); empty is the solver's default. The
	// modes a solver has are declared with its registration in
	// internal/opt; a solver without any, and a mode the solver does not
	// list, are rejected at submission.
	Mode string `json:"mode,omitempty"`
	// SampleFrac is the mini-batch sampling rate b (default 0.3).
	SampleFrac float64 `json:"sample_frac,omitempty"`
	// Updates is the model-update budget (default 200; rounds for the
	// round-budgeted solvers).
	Updates int `json:"updates,omitempty"`
	// SnapshotEvery is the trace/progress resolution (default Updates/10).
	SnapshotEvery int `json:"snapshot_every,omitempty"`
	// StalenessLR applies the staleness-dependent learning-rate modulation.
	StalenessLR bool `json:"staleness_lr,omitempty"`

	// Priority orders the queue: higher runs first, FIFO within a level.
	// A strictly-higher-priority job that would otherwise wait preempts the
	// lowest-priority running job (checkpointed aside, resumed later).
	Priority int `json:"priority,omitempty"`

	// Tenant names the submitting tenant for admission control (per-tenant
	// queue quotas, Config.TenantQuota) and per-tenant serving stats. Empty
	// is the anonymous default tenant.
	Tenant string `json:"tenant,omitempty"`

	// SLOMillis is a soft completion deadline, milliseconds from
	// submission. When a queued job's remaining slack drops below the
	// scheduler's SLOSlack, it may preempt a running job with more slack at
	// the same or lower priority. 0 means no deadline.
	SLOMillis int64 `json:"slo_ms,omitempty"`

	// CheckpointEvery captures a driver checkpoint every that many model
	// updates; the latest is retrievable via the scheduler (and the
	// /v1/jobs/{id}/checkpoint endpoint). Preemption captures one
	// regardless.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`

	// MaxRetries bounds scheduler-side re-queues after a transient runtime
	// failure: instead of failing outright, the job goes back in the queue
	// and resumes from its last durable checkpoint. Default 1; -1 disables
	// retries. Cancellations and preemptions never count as retries.
	MaxRetries int `json:"max_retries,omitempty"`

	// ResumeFrom resumes from the named job's latest checkpoint. Every
	// field left unset inherits the source job's spec (objective, schedule,
	// sampling, barrier, budget, priority), so a bare resume_from continues
	// the exact run; the source must still be retained and hold a
	// checkpoint.
	ResumeFrom ID `json:"resume_from,omitempty"`

	// FStar is the reference optimum f(w*) subtracted from progress and
	// trace errors; AutoFStar computes (and caches per dataset) the
	// least-squares reference optimum server-side instead.
	FStar     float64 `json:"fstar,omitempty"`
	AutoFStar bool    `json:"auto_fstar,omitempty"`
}

func (sp *Spec) normalize() error {
	if sp.Algorithm == "" {
		return fmt.Errorf("jobs: algorithm is required (known: %s)", strings.Join(async.Solvers(), ", "))
	}
	if _, err := async.Lookup(sp.Algorithm); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	if err := sp.Dataset.normalize(); err != nil {
		return err
	}
	if _, err := sp.Barrier.barrier(); err != nil {
		return err
	}
	loss, err := sp.normalizeObjective()
	if err != nil {
		return err
	}
	// the registry's gate, the one Engine.Solve applies: can the chosen
	// solver optimize that objective, under that selection mode?
	sp.Mode = strings.ToLower(sp.Mode)
	if err := opt.Accepts(sp.Algorithm, loss, sp.Mode); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	if sp.SampleFrac == 0 {
		sp.SampleFrac = 0.3
	}
	if sp.SampleFrac < 0 || sp.SampleFrac > 1 {
		return fmt.Errorf("jobs: sample_frac %v outside (0,1]", sp.SampleFrac)
	}
	if sp.Updates == 0 {
		sp.Updates = 200
	}
	if sp.Updates < 0 {
		return fmt.Errorf("jobs: updates %d must be positive", sp.Updates)
	}
	if sp.SnapshotEvery == 0 {
		sp.SnapshotEvery = sp.Updates / 10
		if sp.SnapshotEvery < 1 {
			sp.SnapshotEvery = 1
		}
	}
	if sp.SnapshotEvery < 0 {
		return fmt.Errorf("jobs: snapshot_every %d must be positive", sp.SnapshotEvery)
	}
	if sp.CheckpointEvery < 0 {
		return fmt.Errorf("jobs: checkpoint_every %d must be non-negative", sp.CheckpointEvery)
	}
	if sp.MaxRetries == 0 {
		sp.MaxRetries = 1
	}
	if sp.MaxRetries < -1 {
		return fmt.Errorf("jobs: max_retries %d must be >= -1 (-1 disables retries)", sp.MaxRetries)
	}
	if sp.SLOMillis < 0 {
		return fmt.Errorf("jobs: slo_ms %d must be non-negative", sp.SLOMillis)
	}
	if _, err := sp.Step.schedule(1); err != nil {
		return err
	}
	return nil
}

// canonLossName collapses the loss-name aliases for conflict detection.
func canonLossName(s string) string {
	switch strings.ToLower(s) {
	case "", "ls", "least-squares":
		return "least-squares"
	default:
		return strings.ToLower(s)
	}
}

// normalizeObjective merges the deprecated flat Loss alias into the
// structured Objective and resolves it.
func (sp *Spec) normalizeObjective() (opt.Loss, error) {
	if sp.Loss != "" && sp.Objective.Loss != "" &&
		canonLossName(sp.Loss) != canonLossName(sp.Objective.Loss) {
		return nil, fmt.Errorf("jobs: loss %q conflicts with objective.loss %q (drop the deprecated top-level loss)",
			sp.Loss, sp.Objective.Loss)
	}
	if sp.Objective.Loss == "" {
		sp.Objective.Loss = sp.Loss
	}
	return sp.loss()
}

// objective returns the merged structured objective (flat Loss alias
// folded in).
func (sp Spec) objective() async.Objective {
	o := sp.Objective
	if o.Loss == "" {
		o.Loss = sp.Loss
	}
	return o
}

func (sp Spec) loss() (opt.Loss, error) {
	l, err := sp.objective().Resolve()
	if err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	return l, nil
}

// withResumeBase overlays this spec on the spec of the job being resumed:
// every field the submission leaves at its zero value inherits the source
// job's setting, so a bare {"resume_from": "job-000001"} continues the
// exact run — same objective, schedule, sampling, barrier, budget and
// priority — rather than silently resetting hyperparameters to global
// defaults. Explicitly set fields override. (Boolean knobs can only be
// turned on, not off, relative to the source — JSON zero values are
// indistinguishable from "unset".)
func (sp Spec) withResumeBase(base Spec) Spec {
	out := base
	out.ResumeFrom = sp.ResumeFrom
	if sp.Algorithm != "" {
		out.Algorithm = sp.Algorithm
	}
	if sp.Dataset.Name != "" {
		out.Dataset = sp.Dataset
	}
	if sp.Barrier.Kind != "" {
		out.Barrier = sp.Barrier
	}
	if sp.Step != (StepSpec{}) {
		out.Step = sp.Step
	}
	if sp.Loss != "" {
		out.Loss = sp.Loss
	}
	if sp.Mode != "" {
		out.Mode = sp.Mode
	}
	switch {
	case sp.Objective != (async.Objective{}):
		// an explicit structured objective overrides wholesale
		out.Objective = sp.Objective
	case sp.Loss != "":
		// flat-alias override swaps the loss but keeps inherited penalties
		out.Objective.Loss = sp.Loss
	}
	if sp.SampleFrac != 0 {
		out.SampleFrac = sp.SampleFrac
	}
	if sp.Updates != 0 {
		out.Updates = sp.Updates
	}
	if sp.SnapshotEvery != 0 {
		out.SnapshotEvery = sp.SnapshotEvery
	}
	if sp.Priority != 0 {
		out.Priority = sp.Priority
	}
	if sp.CheckpointEvery != 0 {
		out.CheckpointEvery = sp.CheckpointEvery
	}
	if sp.MaxRetries != 0 {
		out.MaxRetries = sp.MaxRetries
	}
	if sp.FStar != 0 {
		out.FStar = sp.FStar
	}
	if sp.Tenant != "" {
		out.Tenant = sp.Tenant
	}
	if sp.SLOMillis != 0 {
		out.SLOMillis = sp.SLOMillis
	}
	out.StalenessLR = out.StalenessLR || sp.StalenessLR
	out.AutoFStar = out.AutoFStar || sp.AutoFStar
	return out
}

// maxRetries is the effective retry budget: -1 means none.
func (sp Spec) maxRetries() int {
	if sp.MaxRetries < 0 {
		return 0
	}
	return sp.MaxRetries
}

// solveOptions assembles the engine-facing run configuration. workers is
// the executing engine's pool size (step-schedule scaling).
func (sp Spec) solveOptions(workers int) (async.SolveOptions, error) {
	loss, err := sp.loss()
	if err != nil {
		return async.SolveOptions{}, err
	}
	barrier, err := sp.Barrier.barrier()
	if err != nil {
		return async.SolveOptions{}, err
	}
	step, err := sp.Step.schedule(workers)
	if err != nil {
		return async.SolveOptions{}, err
	}
	out := async.SolveOptions{
		Params: opt.Params{
			Loss:            loss,
			Step:            step,
			SampleFrac:      sp.SampleFrac,
			Updates:         sp.Updates,
			Barrier:         barrier,
			StalenessLR:     sp.StalenessLR,
			SnapshotEvery:   sp.SnapshotEvery,
			CheckpointEvery: sp.CheckpointEvery,
		},
		Objective: sp.objective(),
		FStar:     sp.FStar,
	}
	// only cd has selection modes; submission has refused a mode on any
	// other solver
	out.CD.Mode = sp.Mode
	return out, nil
}
