package jobs

import (
	"bytes"
	"io"
	"time"

	"repro/internal/telemetry"
)

// The scheduler keeps each serving count once, as an instrument of its
// private telemetry registry (two schedulers in one process never collide).
// An instrument moves at its event — submit, reject, dispatch, finalize,
// preempt, retry, fence, adopt, store error, the recovery rebuild — and
// Stats and WritePrometheus both read it. What is state rather than an
// event (occupancy, degradation, leases, the store's own counters) is read
// live at scrape by gauge funcs that share Stats' accessors. The
// process-global registry (async_core_*, async_opt_*, async_wal_*,
// async_wire_*) is appended after the scheduler's own families.

// counts is every serving count the scheduler keeps.
type counts struct {
	submitted, rejected, done, failed, canceled    *telemetry.Counter
	preempted, retried, storeErrs, fenced, adopted *telemetry.Counter
	tenantSub, tenantRej, tenantDone               telemetry.CounterVec
	qWaitPrio, qWaitTenant                         telemetry.HistogramVec
	failover                                       *telemetry.Histogram
	recovered, recoverySec                         *telemetry.Gauge
}

// byTenant returns a tenant's counter of v, after making sure the tenant
// has a series in both exposed per-tenant counter families: those series
// are the tenant list Stats and the scrape share. The unnamed tenant ("")
// stays aggregate-only: it gets a throwaway counter, never a series.
func (c *counts) byTenant(v telemetry.CounterVec, tenant string) *telemetry.Counter {
	if tenant == "" {
		return new(telemetry.Counter)
	}
	c.tenantSub.With(tenant)
	c.tenantRej.With(tenant)
	return v.With(tenant)
}

// registerMetrics builds the scheduler's registry. Called once from New,
// before recovery (recovery rebuilds the counts and dispatches jobs).
func (s *Scheduler) registerMetrics() {
	r := telemetry.NewRegistry()
	s.reg = r
	c := &s.count
	durable, replica := s.cfg.Store != nil, s.replica()
	// a count whose family this mode does not expose still counts, for
	// Stats, on a registry nothing renders
	exposedIf := map[bool]*telemetry.Registry{true: r, false: telemetry.NewRegistry()}

	c.submitted = r.Counter("asyncd_jobs_submitted_total", "Jobs accepted by Submit.")
	c.rejected = r.Counter("asyncd_jobs_rejected_total", "Jobs rejected by admission control (queue depth or tenant quota).")
	c.done = r.Counter("asyncd_jobs_done_total", "Jobs completed successfully.")
	c.failed = r.Counter("asyncd_jobs_failed_total", "Jobs that terminated with an error.")
	c.canceled = r.Counter("asyncd_jobs_canceled_total", "Jobs canceled before completion.")
	c.preempted = r.Counter("asyncd_jobs_preempted_total", "Mid-run preemptions (priority, SLO, or explicit).")
	c.tenantSub = r.CounterVec("asyncd_tenant_jobs_submitted_total", "Jobs accepted, by tenant.", "tenant")
	c.tenantRej = r.CounterVec("asyncd_tenant_jobs_rejected_total", "Jobs rejected, by tenant.", "tenant")
	c.qWaitPrio = r.HistogramVec("asyncd_queue_wait_seconds",
		"Queue wait before dispatch, by priority.", "priority", telemetry.LatencyBuckets())
	c.qWaitTenant = r.HistogramVec("asyncd_tenant_queue_wait_seconds",
		"Queue wait before dispatch, by tenant.", "tenant", telemetry.LatencyBuckets())
	c.tenantDone = exposedIf[false].CounterVec("tenant_jobs_done_total", "Jobs completed, by tenant.", "tenant")
	c.retried = exposedIf[durable].Counter("asyncd_jobs_retried_total", "Transient run failures re-queued under Spec.MaxRetries.")
	c.storeErrs = exposedIf[durable].Counter("asyncd_store_errors_total", "Store operations that failed after recovery.")
	c.recovered = exposedIf[durable].Gauge("asyncd_recovered_jobs", "Jobs rebuilt by the boot-time replay.")
	c.recoverySec = exposedIf[durable].Gauge("asyncd_recovery_seconds", "Wall time of the boot-time log replay.")
	c.fenced = exposedIf[replica].Counter("asyncd_fenced_total", "Runs abandoned after losing their lease (stale epoch).")
	c.adopted = exposedIf[replica].Counter("asyncd_jobs_adopted_total", "Orphaned jobs adopted after their owner's lease expired.")
	c.failover = exposedIf[replica].Histogram("asyncd_failover_seconds",
		"Latency from an orphan's lease expiry to its adoption claim.", telemetry.LatencyBuckets())
	r.Gauge("asyncd_engines_max", "Engine-pool ceiling.").SetInt(int64(s.cfg.Engines))
	r.Gauge("asyncd_queue_depth_limit", "Bound on the waiting queue.").SetInt(int64(s.cfg.QueueDepth))

	// live state: WritePrometheus renders this registry under s.mu, so the
	// funcs below read the scheduler directly
	r.GaugeFunc("asyncd_jobs_queued", "Jobs waiting for an engine (preempted included).",
		func() float64 { return float64(len(s.queue)) })
	r.GaugeFunc("asyncd_jobs_running", "Jobs holding an engine.",
		func() float64 { _, n := s.enginesLocked(); return float64(n) })
	r.GaugeFunc("asyncd_engines_live", "Engines spun up in the pool.",
		func() float64 { n, _ := s.enginesLocked(); return float64(n) })
	r.GaugeFunc("asyncd_queue_wait_avg_seconds", "Mean queue wait of dispatched runs.", s.avgQueueWait)
	r.GaugeFunc("asyncd_queue_wait_max_seconds", "Max queue wait of dispatched runs.",
		func() float64 { return s.queueWaitMax.Seconds() })
	r.GaugeFunc("asyncd_uptime_seconds", "Seconds since the scheduler was built.",
		func() float64 { return time.Since(s.startedAt).Seconds() })
	r.GaugeFunc("asyncd_jobs_completed_per_second", "Completed jobs per second of uptime.",
		func() float64 { return float64(c.done.Value()) / time.Since(s.startedAt).Seconds() })
	r.LabeledGaugeFunc("asyncd_tenant_jobs_queued", "Jobs waiting, by tenant.", "tenant", func(emit func(string, float64)) {
		for t, ts := range s.tenantStatsLocked() {
			emit(t, float64(ts.Queued))
		}
	})
	r.LabeledGaugeFunc("asyncd_tenant_jobs_running", "Jobs holding an engine, by tenant.", "tenant", func(emit func(string, float64)) {
		for t, ts := range s.tenantStatsLocked() {
			emit(t, float64(ts.Running))
		}
	})
	if !durable {
		return
	}
	r.GaugeFunc("asyncd_degraded", "1 while the store is erroring and submissions are rejected.", func() float64 {
		if s.degraded {
			return 1
		}
		return 0
	})
	st := s.cfg.Store
	r.CounterFunc("asyncd_wal_appends_total", "Durably acknowledged log records.",
		func() float64 { return float64(st.Metrics().Appends) })
	r.CounterFunc("asyncd_wal_fsync_seconds_count", "Fsyncs paid by the append path.",
		func() float64 { return float64(st.Metrics().Fsyncs) })
	r.CounterFunc("asyncd_wal_fsync_seconds_sum", "Total fsync latency, seconds.",
		func() float64 { return st.Metrics().FsyncTotal.Seconds() })
	r.GaugeFunc("asyncd_wal_size_bytes", "Current log size.",
		func() float64 { return float64(st.Metrics().SizeBytes) })
	r.CounterFunc("asyncd_wal_compactions_total", "Log rewrites to the live set.",
		func() float64 { return float64(st.Metrics().Compactions) })
	r.CounterFunc("asyncd_wal_checkpoint_spills_total", "Durable checkpoint files written.",
		func() float64 { return float64(st.Metrics().CheckpointSpills) })
	r.GaugeFunc("asyncd_wal_replayed_records", "Records the last open recovered.",
		func() float64 { return float64(st.Metrics().ReplayedRecords) })
	if !replica {
		return
	}
	r.GaugeFunc("asyncd_leases_held", "Job leases this replica currently holds.",
		func() float64 { n, _ := s.leasesLocked(); return float64(n) })
	r.GaugeFunc("asyncd_remote_jobs", "Non-terminal jobs owned by other replicas.",
		func() float64 { _, n := s.leasesLocked(); return float64(n) })
	r.CounterFunc("asyncd_lease_claims_total", "Lease claims acknowledged by the shared store.",
		func() float64 { return float64(st.Metrics().LeaseClaims) })
	r.CounterFunc("asyncd_lease_renewals_total", "Lease renewals acknowledged by the shared store.",
		func() float64 { return float64(st.Metrics().LeaseRenewals) })
	r.CounterFunc("asyncd_fenced_appends_total", "Appends the shared store rejected with a stale fencing token.",
		func() float64 { return float64(st.Metrics().FencedAppends) })
}

// WritePrometheus renders the scheduler's serving and durability metrics in
// the Prometheus text exposition format (version 0.0.4), followed by the
// process-global instrumentation of the lower layers. Scrape it at
// /v1/metrics. Dependency-free: the registry is internal/telemetry.
func (s *Scheduler) WritePrometheus(w io.Writer) {
	var b bytes.Buffer
	s.mu.Lock()
	s.reg.WritePrometheus(&b)
	s.mu.Unlock()
	_, _ = w.Write(b.Bytes())
	telemetry.Default().WritePrometheus(w)
}
