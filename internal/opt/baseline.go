package opt

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/la"
	"repro/internal/rdd"
)

// gradAgg is the per-partition fold state for the baseline's aggregate.
type gradAgg struct {
	G la.Vec
	N int
}

// MllibSGD is the comparison baseline of Figure 2: mini-batch SGD written
// directly against the synchronous RDD layer (sample → map → reduce per
// round) with Mllib's 1/√t step decay, entirely bypassing the ASYNC
// components. Differences between this and SyncSGD measure ASYNC's
// synchronous-path overhead. Bypassing the AC means Context.Bind cannot
// reach it, so it checks ctx between rounds itself. It runs through the
// unified driver runtime in its AC-free synchronous mode — one SyncStep per
// Spark-style round.
func MllibSGD(ctx context.Context, rctx *rdd.Context, points *rdd.RDD[rdd.Point], d *dataset.Dataset, p Params, fstar float64) (*Result, error) {
	if err := p.defaults(); err != nil {
		return nil, err
	}
	if err := rejectL1(p.Loss, "mllib-sgd"); err != nil {
		return nil, err
	}
	u := &vecUpdater{w: la.NewVec(d.NumCols())}
	w, loss := u.w, p.Loss
	return runLoop(nil, d, u, &loopSpec{
		Algo: "Mllib-SGD", Name: "mllib-sgd",
		P: &p, Loss: loss, FStar: fstar,
		Target: int64(p.Updates), RoundBudget: true,
		Workers: rctx.Cluster().NumWorkers(),
		SyncStep: func(k int64) (bool, error) {
			if err := ctx.Err(); err != nil {
				return false, fmt.Errorf("opt: MllibSGD round %d: %w", k, err)
			}
			// Spark broadcasts the model each round; tasks close over this
			// round's immutable copy.
			wRound := w.Clone()
			sampled := points.Sample(p.SampleFrac)
			agg, err := rdd.Aggregate(sampled, gradAgg{},
				func(acc gradAgg, pt rdd.Point) gradAgg {
					if acc.G == nil {
						acc.G = la.NewVec(len(wRound))
					}
					loss.AddGrad(pt.X, pt.Y, wRound, acc.G)
					acc.N++
					return acc
				},
				func(a, b gradAgg) gradAgg {
					switch {
					case a.G == nil:
						return b
					case b.G == nil:
						return a
					default:
						la.Axpy(1, b.G, a.G)
						a.N += b.N
						return a
					}
				})
			if err != nil {
				return false, fmt.Errorf("opt: MllibSGD round %d: %w", k, err)
			}
			if agg.N == 0 {
				return false, nil
			}
			la.Axpy(-p.Step.Alpha(k)/float64(agg.N), agg.G, w)
			return true, nil
		},
	})
}

// SAGAFullTableBroadcast is the inefficient Spark-only SAGA of Algorithm 3,
// kept as the ablation comparator for the ASYNCbroadcaster: every round the
// driver re-broadcasts the FULL history table (one model vector per
// previously touched sample index), exactly the overhead §4.3 describes.
// It returns the total bytes shipped so the ablation bench can report the
// communication blow-up.
func SAGAFullTableBroadcast(rctx *rdd.Context, points *rdd.RDD[rdd.Point], d *dataset.Dataset, p Params, fstar float64) (*Result, int64, error) {
	st, err := newSagaRun(d, &p, "saga-table")
	if err != nil {
		return nil, 0, err
	}
	cols := d.NumCols()
	loss := p.Loss // the partials carry loss gradients only: st applies the ridge term
	if c, ok := loss.(Composite); ok {
		loss = c.Inner
	}
	// history table: sample index → model at last touch (driver side);
	// untouched samples contribute zero historical gradient, matching
	// SagaKernel's zero-initialized table
	table := map[int]la.Vec{}
	var bytesShipped int64
	workers := int64(len(rctx.Cluster().AliveWorkers()))
	res, err := runLoop(nil, d, sagaStreamUpdater{st}, &loopSpec{
		Algo: "SAGA-table", Name: "saga-table",
		P: &p, Loss: loss, FStar: fstar,
		Target: int64(p.Updates), RoundBudget: true,
		Workers: rctx.Cluster().NumWorkers(),
		SyncStep: func(k int64) (bool, error) {
			wRound := st.w.Clone()
			// Spark must ship the whole table with the round's broadcast:
			// count its size against the run (8 bytes per float64).
			tableCopy := make(map[int]la.Vec, len(table))
			for idx, vec := range table {
				tableCopy[idx] = vec
			}
			bytesShipped += workers * int64(len(tableCopy)) * int64(cols) * 8
			bytesShipped += workers * int64(cols) * 8 // the model itself
			sampled := points.Sample(p.SampleFrac)
			type sagaAgg struct {
				Sum, Hist la.Vec
				N         int
				Idx       []int
			}
			agg, err := rdd.Aggregate(sampled, sagaAgg{},
				func(acc sagaAgg, pt rdd.Point) sagaAgg {
					if acc.Sum == nil {
						acc.Sum = la.NewVec(cols)
						acc.Hist = la.NewVec(cols)
					}
					loss.AddGrad(pt.X, pt.Y, wRound, acc.Sum)
					if hw, ok := tableCopy[pt.GlobalIndex]; ok {
						loss.AddGrad(pt.X, pt.Y, hw, acc.Hist)
					}
					acc.N++
					acc.Idx = append(acc.Idx, pt.GlobalIndex)
					return acc
				},
				func(a, b sagaAgg) sagaAgg {
					switch {
					case a.Sum == nil:
						return b
					case b.Sum == nil:
						return a
					default:
						la.Axpy(1, b.Sum, a.Sum)
						la.Axpy(1, b.Hist, a.Hist)
						a.N += b.N
						a.Idx = append(a.Idx, b.Idx...)
						return a
					}
				})
			if err != nil {
				return false, fmt.Errorf("opt: table-SAGA round %d: %w", k, err)
			}
			if agg.N == 0 {
				return false, nil
			}
			// the driver reads only the difference of the two sums
			la.Axpy(-1, agg.Hist, agg.Sum)
			if err := st.apply(p.Step.Alpha(k), agg.Sum, agg.N); err != nil {
				return false, err
			}
			for _, idx := range agg.Idx {
				table[idx] = wRound
			}
			return true, nil
		},
	})
	return res, bytesShipped, err
}

// sagaHistoryOpName is the registered op of the version-history arm.
const sagaHistoryOpName = "opt.saga.history"

func init() {
	registerKernelOp(sagaHistoryOpName, true, func(loss Loss, a GradOpArgs) core.Kernel {
		return versionHistoryKernel(loss, a.model(), a.Frac)
	})
}

// SAGAVersionHistory is SAGA with Algorithm 4's history taken literally,
// the ablation comparator for SagaKernel's per-row coefficients: a worker
// reads a row's historical gradient at the model version the row last saw
// (w_br.value(index), the Table-1 DynBroadcast.History handle), so its
// cache retains every version some row still references. It runs SAGA's
// BSP rounds on the same driver state, over every transport.
func SAGAVersionHistory(ac *core.Context, d *dataset.Dataset, p Params, fstar float64) (*Result, error) {
	return runSAGA(ac, d, p, fstar, sagaHistoryOpName, true)
}

// versionHistoryKernel computes SagaKernel's payload the paper's way: per
// sampled row the loss gradient coefficient at the current model, minus the
// one at the row's recorded version if it has one, scattered once; then it
// records the current version for the row. The sum accumulates sparsely; a
// dense task expands it at the end, adding the same terms in the same order
// a dense sweep would. Its loss is linear: the op's args name only linear
// losses.
func versionHistoryKernel(loss Loss, wBr core.DynBroadcast, frac float64) core.Kernel {
	lin, l2, _, _ := splitProx(loss)
	return func(env *cluster.Env, parts []int, seed int64) (any, int, error) {
		w, err := modelVec(env, wBr)
		if err != nil {
			return nil, 0, err
		}
		acc := env.Scratch().Delta("opt.saga.acc", len(w))
		acc.Reset()
		rows := cluster.NewRowSampler(seed, frac)
		versions := wBr.History(env)
		n := 0
		for _, pi := range parts {
			p, err := env.Partition(pi)
			if err != nil {
				return nil, 0, err
			}
			nr := p.NumRows()
			for local := rows.Next(0, nr); local < nr; local = rows.Next(local+1, nr) {
				idx, val := p.X.RowNZ(local)
				d := lin.GradCoeff(la.SparseDot(idx, val, w), p.Y[local])
				hv, touched, err := versions.TryValueAt(env, p.GlobalRow(local))
				if err != nil {
					return nil, 0, err
				}
				if touched {
					wHist, err := asVec(hv)
					if err != nil {
						return nil, 0, err
					}
					d -= lin.GradCoeff(la.SparseDot(idx, val, wHist), p.Y[local])
				}
				acc.Accum(d, idx, val)
				versions.Record(p.GlobalRow(local))
				n++
			}
		}
		if n == 0 {
			return nil, 0, nil
		}
		diff := acc.Compact()
		if l2 == 0 && sparseTaskViable(env, parts, frac, len(w)) {
			return diff, n, nil
		}
		defer la.PutDelta(diff)
		return diff.Dense(), n, nil
	}
}
