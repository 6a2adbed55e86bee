package store

import "repro/internal/telemetry"

// WAL instrumentation on the process-global registry. These are live views
// of the durable log: every append/fsync observes directly; size tracks the
// file length after each mutation. The asyncd_wal_* families exposed by the
// jobs scheduler are not a copy: they read this handle's Metrics() at scrape.
var (
	walAppends = telemetry.Default().Counter("async_wal_appends_total",
		"Records durably appended to the WAL (compaction rewrites included).")
	walAppendLat = telemetry.Default().Histogram("async_wal_append_seconds",
		"WAL append latency (frame encode + write + fsync).",
		telemetry.LatencyBuckets())
	walFsyncLat = telemetry.Default().Histogram("async_wal_fsync_seconds",
		"fsync latency under WAL appends, spills, and compactions.",
		telemetry.LatencyBuckets())
	walSize = telemetry.Default().Gauge("async_wal_size_bytes",
		"Current WAL log size in bytes (most recently opened store).")
	walCompactions = telemetry.Default().Counter("async_wal_compactions_total",
		"WAL compactions (log rewritten from the live-job snapshot).")
	walSpills = telemetry.Default().Counter("async_wal_checkpoint_spills_total",
		"Checkpoint spill files durably written.")
	walReplayed = telemetry.Default().Counter("async_wal_replayed_records_total",
		"Records recovered from disk across WAL opens.")
	walTruncations = telemetry.Default().Counter("async_wal_truncations_total",
		"WAL opens that discarded a torn or corrupt tail.")
	walLeaseClaims = telemetry.Default().Counter("async_wal_lease_claims_total",
		"Job leases claimed (epoch bumps) across lease-capable stores.")
	walLeaseRenewals = telemetry.Default().Counter("async_wal_lease_renewals_total",
		"Job lease renewals across lease-capable stores.")
	walFencedAppends = telemetry.Default().Counter("async_wal_fenced_appends_total",
		"Mutations rejected with ErrFenced (stale replica writes).")
)
