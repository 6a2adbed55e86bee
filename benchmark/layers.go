package main

// perLayer lists every per-layer metric the traced run prints, layer prefix
// = module name. They have no bound. A workload that never enters a layer
// reports 0 for it — that is the "bypass" prediction made visible. Sources:
// spans the benchmark records around its own calls into a layer (_s, and the
// jobs.* client-side latencies), deltas of the counters the layers already
// export taken around the traced repetition, and probes — a layer's public
// function called in a loop at the workload's own shapes.
var perLayer = []metricDef{
	{Name: "dataset.generate_s", Unit: "s", Better: "lower"},

	{Name: "async.engine_new_s", Unit: "s", Better: "lower"},
	{Name: "async.solve_s", Unit: "s", Better: "lower"},
	{Name: "async.engine_close_s", Unit: "s", Better: "lower"},
	{Name: "async.scaling_2w_over_1w", Unit: "ratio", Better: "higher"},

	{Name: "rdd.distribute_s", Unit: "s", Better: "lower"},

	{Name: "core.tasks_dispatched", Unit: "count", Better: "lower"},
	{Name: "core.results", Unit: "count", Better: "lower"},
	{Name: "core.updates", Unit: "count", Better: "higher"},
	{Name: "core.task_compute_s", Unit: "s", Better: "lower"},
	{Name: "core.task_wait_s", Unit: "s", Better: "lower"},
	{Name: "core.task_wait_us_mean", Unit: "us", Better: "lower"},
	{Name: "core.dispatch_roundtrip_us_mean", Unit: "us", Better: "lower"},
	{Name: "core.staleness_mean", Unit: "updates", Better: "lower"},
	{Name: "core.staleness_p95", Unit: "updates", Better: "lower"},
	{Name: "core.worker_busy_share", Unit: "ratio", Better: "higher"},
	{Name: "core.broadcast_us", Unit: "us", Better: "lower"},
	{Name: "core.barrier_wait_us", Unit: "us", Better: "lower"},
	{Name: "core.dispatch_us", Unit: "us", Better: "lower"},
	{Name: "core.collect_wait_us", Unit: "us", Better: "lower"},
	{Name: "core.advance_clock_us", Unit: "us", Better: "lower"},
	{Name: "core.loop_wall_s", Unit: "s", Better: "lower"},

	{Name: "opt.apply_s", Unit: "s", Better: "lower"},
	{Name: "opt.apply_us_mean", Unit: "us", Better: "lower"},
	{Name: "opt.settle_s", Unit: "s", Better: "lower"},
	{Name: "opt.settle_count", Unit: "count", Better: "lower"},
	{Name: "opt.select_hits", Unit: "count", Better: "higher"},
	{Name: "opt.select_misses", Unit: "count", Better: "lower"},
	{Name: "opt.select_rebuilds", Unit: "count", Better: "lower"},
	{Name: "opt.select_fallbacks", Unit: "count", Better: "lower"},
	{Name: "opt.kernel_task_us", Unit: "us", Better: "lower"},
	{Name: "opt.checkpoint_save_us", Unit: "us", Better: "lower"},
	{Name: "opt.checkpoint_load_us", Unit: "us", Better: "lower"},
	{Name: "opt.reference_optimum_s", Unit: "s", Better: "lower"},

	{Name: "la.grad_accum_ns", Unit: "ns", Better: "lower"},
	{Name: "la.delta_apply_us", Unit: "us", Better: "lower"},

	{Name: "maxip.flush_us", Unit: "us", Better: "lower"},
	{Name: "maxip.topk_us", Unit: "us", Better: "lower"},
	{Name: "maxip.rebuild_ms", Unit: "ms", Better: "lower"},

	{Name: "cluster.wire_tx_bytes", Unit: "B", Better: "lower"},
	{Name: "cluster.wire_rx_bytes", Unit: "B", Better: "lower"},
	{Name: "cluster.wire_frames", Unit: "count", Better: "lower"},
	{Name: "cluster.wire_gob_frames", Unit: "count", Better: "lower"},
	{Name: "cluster.wire_bytes_per_update", Unit: "B", Better: "lower"},
	{Name: "cluster.encode_result_us", Unit: "us", Better: "lower"},
	{Name: "cluster.decode_result_us", Unit: "us", Better: "lower"},
	{Name: "cluster.result_frame_bytes", Unit: "B", Better: "lower"},
	{Name: "cluster.encode_push_us", Unit: "us", Better: "lower"},
	{Name: "cluster.decode_push_us", Unit: "us", Better: "lower"},
	{Name: "cluster.push_frame_bytes", Unit: "B", Better: "lower"},

	{Name: "jobs.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "jobs.submit_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "jobs.wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "jobs.new_s", Unit: "s", Better: "lower"},
	{Name: "jobs.drain_close_s", Unit: "s", Better: "lower"},
	{Name: "jobs.queue_wait_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "jobs.run_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "jobs.store_errors", Unit: "count", Better: "lower"},
	{Name: "jobs.recovered_jobs", Unit: "count", Better: "higher"},
	{Name: "jobs.recovery_ms", Unit: "ms", Better: "lower"},
	{Name: "jobs.restart_ms", Unit: "ms", Better: "lower"},

	{Name: "store.open_s", Unit: "s", Better: "lower"},
	{Name: "store.appends", Unit: "count", Better: "lower"},
	{Name: "store.append_s", Unit: "s", Better: "lower"},
	{Name: "store.append_us_mean", Unit: "us", Better: "lower"},
	{Name: "store.fsync_s", Unit: "s", Better: "lower"},
	{Name: "store.fsync_us_mean", Unit: "us", Better: "lower"},
	{Name: "store.compactions", Unit: "count", Better: "lower"},
	{Name: "store.replayed_records", Unit: "count", Better: "lower"},
	{Name: "store.append_us", Unit: "us", Better: "lower"},
	{Name: "store.append_nosync_us", Unit: "us", Better: "lower"},

	// the tracing itself: its cost, and the three sum checks as ratios that
	// should read 1 (see README, "Sum checks")
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.worker_time_coverage", Unit: "ratio", Better: "higher"},
	{Name: "trace.probe_loop_coverage", Unit: "ratio", Better: "higher"},
	{Name: "trace.job_latency_coverage", Unit: "ratio", Better: "higher"},
}

var perLayerUnit = func() map[string]string {
	m := make(map[string]string, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = d.Unit
	}
	return m
}()
