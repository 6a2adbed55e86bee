package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"repro/async"
	"repro/async/jobs/store"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/la"
	"repro/internal/la/maxip"
	"repro/internal/opt"
)

// probeUS times fn in a loop and returns the median over five rounds of the
// mean time per call, in microseconds. Probes call a layer's public function
// at the workload's own shapes; they never run during a timed repetition.
func probeUS(iters int, fn func(i int)) float64 {
	fn(0) // first call pays pools and caches
	rounds := make([]float64, 5)
	n := 0
	for r := range rounds {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			n++
			fn(n)
		}
		rounds[r] = time.Since(t0).Seconds() * 1e6 / float64(iters)
	}
	return median(rounds)
}

func recyclePayload(v any) {
	switch g := v.(type) {
	case la.Vec:
		la.PutVec(g)
	case *la.DeltaVec:
		la.PutDelta(g)
	case opt.SagaPartial:
		la.PutVec(g.Sum)
		la.PutVec(g.HistSum)
	case opt.SagaDelta:
		la.PutDelta(g.Sum)
		la.PutDelta(g.HistSum)
	}
}

// workerEnv rebuilds what one worker of the workload holds: its share of the
// partitions and the model broadcast in its cache.
func workerEnv(d *dataset.Dataset, partitions, workers int) (*cluster.Env, []int, error) {
	parts, err := dataset.Split(d, partitions)
	if err != nil {
		return nil, nil, err
	}
	env := cluster.NewEnv(0, 1, nil)
	var idx []int
	for _, p := range parts {
		if p.Index%workers != 0 { // round-robin placement: worker 0's share
			continue
		}
		if err := env.InstallPartition(p); err != nil {
			return nil, nil, err
		}
		idx = append(idx, p.Index)
	}
	env.Cache().Put("w", 1, la.NewVec(d.NumCols()))
	return env, idx, nil
}

// kernelProbes times the workload's task kernel on one worker's share of the
// data, the scatter half of a per-sample gradient on one of its rows, the
// driver-side apply of one task payload, and a checkpoint of its model.
func kernelProbes(m map[string]float64, d *dataset.Dataset, loss opt.Loss, saga bool, partitions, workers int, frac float64) error {
	env, idx, err := workerEnv(d, partitions, workers)
	if err != nil {
		return err
	}
	wBr := core.DynBroadcast{ID: "w", Version: 1}
	kern := opt.GradKernel(loss, wBr, frac)
	if saga {
		kern = opt.SagaKernel(loss, wBr, frac)
	}
	var kerr error
	m["opt.kernel_task_us"] = probeUS(200, func(i int) {
		v, _, err := kern(env, idx, int64(i))
		if err != nil {
			kerr = err
		}
		recyclePayload(v)
	})
	if kerr != nil {
		return kerr
	}

	ridx, rval := d.X.RowNZ(0)
	g := la.NewVec(d.NumCols())
	m["la.grad_accum_ns"] = 1e3 * probeUS(20000, func(int) { la.GradAccum(0.5, ridx, rval, g) })

	// a sparse task payload applied to the dense model (the driver's O(nnz)
	// update); dense workloads have no such step
	if v, n, err := opt.GradKernel(loss, wBr, frac)(env, idx, 42); err == nil && n > 0 {
		if delta, ok := v.(*la.DeltaVec); ok {
			w := la.NewVec(d.NumCols())
			m["la.delta_apply_us"] = probeUS(2000, func(int) { delta.AxpyDense(-1e-9, w) })
		}
		recyclePayload(v)
	}
	checkpointProbes(m, d.NumCols(), saga)
	return nil
}

func checkpointProbes(m map[string]float64, dim int, hist bool) {
	cp := &opt.Checkpoint{Algorithm: "asgd", W: la.NewVec(dim), Updates: 1 << 20}
	for i := range cp.W {
		cp.W[i] = float64(i%13) * 0.25
	}
	if hist {
		cp.Algorithm, cp.AvgHist = "asaga", cp.W.Clone()
	}
	var buf bytes.Buffer
	iters := max(10, 2_000_000/dim)
	m["opt.checkpoint_save_us"] = probeUS(iters, func(int) {
		buf.Reset()
		_ = opt.SaveCheckpoint(&buf, cp) // a bytes.Buffer write cannot fail
	})
	blob := buf.Bytes()
	m["opt.checkpoint_load_us"] = probeUS(iters, func(int) {
		_, _ = opt.LoadCheckpoint(bytes.NewReader(blob)) // round trip of the blob just written
	})
}

// maxipProbes times the selection index on the workload's matrix: a flush
// after one block's worth of dirty rows, a top-k extraction, a rebuild.
func maxipProbes(m map[string]float64, d *dataset.Dataset, block int) {
	cv := la.NewColView(d.X)
	u := la.NewVec(d.NumRows())
	for i := range u {
		u[i] = float64(i%17) - 8
	}
	ix := maxip.New(d.X, cv, u, maxip.Options{})
	rows := int32(d.NumRows())
	m["maxip.flush_us"] = probeUS(200, func(i int) {
		for k := 0; k < block; k++ {
			r := (int32(i)*7919 + int32(k)*104729) % rows
			ix.SetRow(r, float64(i%5)-2)
		}
		ix.Flush()
	})
	out := make([]int32, 0, block)
	m["maxip.topk_us"] = probeUS(200, func(int) { out = ix.TopK(block, out[:0]) })
	m["maxip.rebuild_ms"] = probeUS(5, func(int) { ix.Rebuild(nil) }) / 1e3
}

// wireProbes times the codec on the two frames the TCP workload moves: the
// sparse-delta task result coming in and the dense model going out.
func wireProbes(m map[string]float64, d *dataset.Dataset, loss opt.Loss, partitions, workers int, frac float64) error {
	env, idx, err := workerEnv(d, partitions, workers)
	if err != nil {
		return err
	}
	v, n, err := opt.GradKernel(loss, core.DynBroadcast{ID: "w", Version: 1}, frac)(env, idx, 42)
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("wire probe: empty sample")
	}
	defer recyclePayload(v)
	model := la.NewVec(d.NumCols())
	for i := range model {
		model[i] = float64(i%13) - 6
	}
	for name, msg := range map[string]cluster.Message{
		"result": {Kind: cluster.KindTaskResult, Result: &cluster.Result{
			TaskID: 1, Op: opt.GradOpName, Payload: core.ReducePayload{Val: v, N: n},
		}},
		"push": {Kind: cluster.KindFetchReply, FetchReply: &cluster.FetchReply{ID: "w", Version: 1, Value: model}},
	} {
		frame, binary, err := cluster.EncodeFrame(msg, true)
		if err != nil {
			return err
		}
		if !binary {
			return fmt.Errorf("wire probe: %s frame fell back to gob", name)
		}
		m["cluster."+name+"_frame_bytes"] = float64(len(frame))
		m["cluster.encode_"+name+"_us"] = probeUS(500, func(int) {
			_, _, _ = cluster.EncodeFrame(msg, true) // encoded once above
		})
		m["cluster.decode_"+name+"_us"] = probeUS(500, func(int) {
			_, _ = cluster.DecodeFrame(frame)
		})
	}
	return nil
}

// storeProbes times an isolated durable append with and without fsync.
func storeProbes(m map[string]float64, outDir string) error {
	for name, opts := range map[string]store.Options{
		"store.append_us":        {},
		"store.append_nosync_us": {NoSync: true},
	} {
		dir, err := os.MkdirTemp(outDir, "wal-probe-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		w, err := store.Open(dir, opts)
		if err != nil {
			return err
		}
		var aerr error
		m[name] = probeUS(100, func(i int) {
			rec := &store.Record{Type: store.TypeCheckpointed, Job: "job-000001", Updates: int64(i), DispatchSeq: int64(i)}
			if err := w.Append(rec); err != nil {
				aerr = err
			}
		})
		if err := w.Close(); aerr == nil {
			aerr = err
		}
		if aerr != nil {
			return aerr
		}
	}
	return nil
}

// probeDriver is the paper's Algorithm 2 written against the raw Table-1
// primitives, one span per primitive call, on the workload's own engine
// set-up. It splits a driver loop's wall time into broadcast, barrier wait,
// dispatch, collect wait and apply-and-advance.
func (w *solverWorkload) probeDriver(m map[string]float64, seed int64, p *problem, tr *tracer, parent, updates int) error {
	h, err := w.engine(seed, p, nil, -1)
	if err != nil {
		return err
	}
	ac := h.eng.Context()
	barrier := async.ASP()
	if w.bsp {
		barrier = async.BSP()
	}
	model := la.NewVec(p.d.NumCols())
	alpha := 0.1 / float64(w.data(seed).NNZPerRow) / float64(w.workers)
	loop := tr.start("core.probe_loop", parent)
	var loopErr error
	for k := int64(0); k < int64(updates) && loopErr == nil; {
		id := tr.start("core.broadcast", loop)
		wBr := ac.ASYNCbroadcast("probe.w", model.Clone())
		ac.RDD().PruneBroadcast("probe.w", 4*w.workers)
		tr.end(id)

		id = tr.start("core.barrier_wait", loop)
		sel, err := ac.ASYNCbarrier(barrier, nil)
		tr.end(id)
		if err != nil {
			loopErr = err
			break
		}

		id = tr.start("core.dispatch", loop)
		if w.tcp {
			_, err = ac.ASYNCreduceOp(sel, opt.GradOpName, func(_ int, parts []int) any {
				return opt.GradOpArgs{BroadcastID: wBr.ID, Version: wBr.Version, Frac: w.frac, Parts: parts, Loss: p.loss.Name()}
			})
		} else {
			_, err = ac.ASYNCreduce(sel, opt.GradKernel(p.loss, wBr, w.frac))
		}
		tr.end(id)
		if err != nil {
			loopErr = err
			break
		}

		for first := true; (first || ac.HasNext()) && k < int64(updates); first = false {
			id = tr.start("core.collect_wait", loop)
			res, err := ac.ASYNCcollectAll()
			tr.end(id)
			if err != nil {
				loopErr = err
				break
			}
			id = tr.start("core.advance_clock", loop)
			if res.Attrs.MiniBatch > 0 {
				loopErr = opt.AxpyPayload(-alpha/float64(res.Attrs.MiniBatch), res.Payload, model)
			}
			k = ac.AdvanceClock()
			tr.end(id)
		}
	}
	tr.end(loop)
	if err := h.close(nil, -1); loopErr == nil {
		loopErr = err
	}
	if loopErr != nil {
		return fmt.Errorf("%s: probe driver: %w", w.name, loopErr)
	}
	_, wall := tr.calls("core.probe_loop")
	m["core.loop_wall_s"] = wall
	for _, prim := range []string{"broadcast", "barrier_wait", "dispatch", "collect_wait", "advance_clock"} {
		if n, seconds := tr.calls("core." + prim); n > 0 {
			m["core."+prim+"_us"] = seconds * 1e6 / float64(n)
		}
	}
	// the loop's self time is what no primitive's span covers
	m["trace.probe_loop_coverage"] = 1 - selfTimes(tr.snapshot())["core.probe_loop"]/wall
	return nil
}
