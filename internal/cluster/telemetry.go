package cluster

import "repro/internal/telemetry"

// Wire instrumentation on the process-global registry. The families keep
// their "format" label (dashboards and the benchmark select on it) though
// "binary" is the only format there is; the children are resolved once here
// so the per-frame path is a cached zero-alloc counter add.
var (
	wireTxFrames = telemetry.Default().CounterVec("async_wire_tx_frames_total", "Frames sent, by codec format.", "format").With("binary")
	wireTxBytes  = telemetry.Default().CounterVec("async_wire_tx_bytes_total", "Bytes sent in frames, by codec format.", "format").With("binary")
	wireRxFrames = telemetry.Default().CounterVec("async_wire_rx_frames_total", "Frames received, by codec format.", "format").With("binary")
	wireRxBytes  = telemetry.Default().CounterVec("async_wire_rx_bytes_total", "Bytes received in frames, by codec format.", "format").With("binary")

	// Broadcast-value traffic and the worker caches it fills (every cache in
	// the process; the gauge is the number of (id, version) values held now).
	fetchReplies   = telemetry.Default().CounterVec("async_broadcast_fetches_total", "Broadcast fetches served, by reply form: patch (changed coordinates against the version the worker held) or dense (the whole value).", "reply")
	fetchPatch     = fetchReplies.With("patch")
	fetchDense     = fetchReplies.With("dense")
	cacheEvictions = telemetry.Default().Counter("async_broadcast_cache_evictions_total", "Broadcast versions dropped from worker caches by the retention rule.")
	cacheVersions  = telemetry.Default().Gauge("async_broadcast_cache_versions", "Broadcast (id, version) values held in worker caches.")
)
