package opt

import (
	"context"
	"fmt"

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
	if err := p.defaults(); err != nil {
		return nil, 0, err
	}
	cols := d.NumCols()
	st := newSagaState(cols, d.NumRows())
	loss := p.Loss
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
				Part SagaPartial
				N    int
				Idx  []int
			}
			agg, err := rdd.Aggregate(sampled, sagaAgg{},
				func(acc sagaAgg, pt rdd.Point) sagaAgg {
					if acc.Part.Sum == nil {
						acc.Part.Sum = la.NewVec(cols)
						acc.Part.HistSum = la.NewVec(cols)
					}
					loss.AddGrad(pt.X, pt.Y, wRound, acc.Part.Sum)
					if hw, ok := tableCopy[pt.GlobalIndex]; ok {
						loss.AddGrad(pt.X, pt.Y, hw, acc.Part.HistSum)
					}
					acc.N++
					acc.Idx = append(acc.Idx, pt.GlobalIndex)
					return acc
				},
				func(a, b sagaAgg) sagaAgg {
					switch {
					case a.Part.Sum == nil:
						return b
					case b.Part.Sum == nil:
						return a
					default:
						la.Axpy(1, b.Part.Sum, a.Part.Sum)
						la.Axpy(1, b.Part.HistSum, a.Part.HistSum)
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
			if err := st.apply(p.Step.Alpha(k), agg.Part, agg.N); err != nil {
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
