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
)
