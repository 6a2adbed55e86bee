// Package telemetry is the repo's dependency-free observability spine: a
// metrics registry (atomic counters, gauges, fixed-bucket histograms,
// single-label families, and func metrics read at scrape time — for state,
// or for counts another component keeps) rendered in the Prometheus text
// exposition format, plus run-scoped structured trace events (JSONL via
// log/slog) correlated by run ID and dispatch_seq.
//
// # Zero-allocation invariant
//
// The hot-path operations — Counter.Inc/Add, Gauge.Set/Add,
// Histogram.Observe, and Observe/Inc on a cached Vec child — perform zero
// heap allocations and take no locks (atomics only). Instrumentation may
// therefore sit on per-task, per-update, and per-frame paths without
// perturbing what it measures; the repository benchmark (benchmark/) reports
// the combined cost as trace.overhead_share, BenchmarkCounterInc and
// BenchmarkHistogramObserve time one operation each, and a
// testing.AllocsPerRun test pins 0 allocs/op.
// Vec.With on a *new* label value allocates (it creates the child under a
// lock); hot callers resolve children once and reuse them. Trace events
// allocate (slog encoding) and are for low-cadence lifecycle points —
// dispatches, checkpoints, preemptions — never per-update loops.
//
// # Registries
//
// Default() is the process-global registry the internal layers (core
// coordinator, opt runtime, WAL store, wire codec) register into at init;
// serving layers own private registries (NewRegistry) for per-instance
// families and concatenate both expositions on scrape.
package telemetry
