package opt

import (
	"fmt"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/la"
)

// Sparse-delta task path. When a task's partitions are sparse enough and
// its loss is linear (see LinearLoss), the gradient kernels accumulate only
// the coordinates the sampled rows touch — O(nnz) per task instead of O(d)
// — and ship the result as a pooled la.DeltaVec (or SagaDelta) instead of a
// dense vector. The drivers recognise the payload type and apply the update
// in O(nnz) too (see lazy.go). Sampling draws from the same worker RNG in
// the same order as the dense sweep, and the scatter arithmetic mirrors the
// dense kernels operation for operation, so on a fixed seed the sparse and
// dense paths produce bitwise-identical gradients (regression-tested in
// sparse_test.go).

// SparseDensityThreshold gates the sparse task path: a task takes it only
// when every partition it sweeps has density (nnz / rows·cols) at or below
// this value (the paper's sparse datasets sit near 0.2% density). It is a
// variable for tests, which pin it to 0 to force the dense path; treat it
// as a constant in production code.
var SparseDensityThreshold = 0.1

// sparseWorkFactor is the second half of the gate: the compact step costs
// roughly an order of magnitude more per touched coordinate than a dense
// element visit (radix sort passes plus a random-access gather), so the
// sparse path only wins when the expected touched set is a small fraction
// of the dimension. A task whose expected sample nnz exceeds
// dim/sparseWorkFactor runs dense. Measured on the CI-class machine the
// break-even sits near dim/22; 32 leaves margin.
const sparseWorkFactor = 32

// sparseTaskViable decides the path for one task: every partition below
// the density threshold, and the expected sampled nnz (frac · stored nnz,
// an upper bound on touched coordinates) small relative to the dimension.
// Both checks read stored counts only — O(#partitions), not O(nnz) — the
// "detect once per partition" contract.
func sparseTaskViable(env *cluster.Env, parts []int, frac float64, dim int) bool {
	totalNNZ := 0
	for _, pi := range parts {
		p, err := env.Partition(pi)
		if err != nil || p.X.Density() > SparseDensityThreshold {
			return false
		}
		totalNNZ += p.X.NNZ()
	}
	return frac*float64(totalNNZ)*sparseWorkFactor <= float64(dim)
}

// gradSweepSparse is the sparse counterpart of gradSweep: sample each row
// of partition p with probability frac (consuming the RNG exactly like the
// dense sweep) and scatter the per-sample gradient coefficient into the
// accumulator, touching only the row's nonzeros.
func gradSweepSparse(lin LinearLoss, p *dataset.Partition, rng *rand.Rand, frac float64, w la.Vec, acc *la.DeltaAccum) int {
	n := 0
	for local := 0; local < p.NumRows(); local++ {
		if rng.Float64() >= frac {
			continue
		}
		idx, val := p.X.RowNZ(local)
		c := lin.GradCoeff(la.SparseDot(idx, val, w), p.Y[local])
		acc.Accum(c, idx, val)
		n++
	}
	return n
}

// SagaDelta is the sparse counterpart of SagaPartial: the current- and
// historical-gradient sums restricted to the coordinates the sampled rows
// touch. Both deltas are pooled; the driver returns them with la.PutDelta
// after applying the update.
type SagaDelta struct {
	Sum     *la.DeltaVec // Σ_{i∈S} ∇f_i(w_current)
	HistSum *la.DeltaVec // Σ_{i∈S} ∇f_i(w_hist(i))
}

// Binary payload codes claimed by the opt layer (the core layer owns 16;
// see internal/core/codec.go).
const (
	payloadSagaPartial byte = 17
	payloadSagaDelta   byte = 18
	payloadGradOpArgs  byte = 19
)

func init() {
	cluster.RegisterPayloadCodec(payloadSagaPartial, SagaPartial{},
		func(w *cluster.BinWriter, v any) error {
			p, ok := v.(SagaPartial)
			if !ok {
				return fmt.Errorf("opt: saga codec got %T", v)
			}
			if err := w.PutValue(p.Sum); err != nil {
				return err
			}
			return w.PutValue(p.HistSum)
		},
		func(r *cluster.BinReader) (any, error) {
			s, err := r.Value()
			if err != nil {
				return nil, err
			}
			h, err := r.Value()
			if err != nil {
				return nil, err
			}
			p := SagaPartial{}
			if s != nil {
				if p.Sum, err = asPayloadVec(s); err != nil {
					return nil, err
				}
			}
			if h != nil {
				if p.HistSum, err = asPayloadVec(h); err != nil {
					return nil, err
				}
			}
			return p, nil
		})
	cluster.RegisterPayloadCodec(payloadSagaDelta, SagaDelta{},
		func(w *cluster.BinWriter, v any) error {
			p, ok := v.(SagaDelta)
			if !ok {
				return fmt.Errorf("opt: saga-delta codec got %T", v)
			}
			if err := w.PutValue(p.Sum); err != nil {
				return err
			}
			return w.PutValue(p.HistSum)
		},
		func(r *cluster.BinReader) (any, error) {
			s, err := r.Value()
			if err != nil {
				return nil, err
			}
			h, err := r.Value()
			if err != nil {
				return nil, err
			}
			p := SagaDelta{}
			var ok bool
			if p.Sum, ok = s.(*la.DeltaVec); !ok {
				return nil, fmt.Errorf("opt: saga-delta sum decoded as %T", s)
			}
			if p.HistSum, ok = h.(*la.DeltaVec); !ok {
				return nil, fmt.Errorf("opt: saga-delta hist decoded as %T", h)
			}
			return p, nil
		})
	cluster.RegisterPayloadCodec(payloadGradOpArgs, GradOpArgs{},
		func(w *cluster.BinWriter, v any) error {
			a, ok := v.(GradOpArgs)
			if !ok {
				return fmt.Errorf("opt: grad-args codec got %T", v)
			}
			w.PutString(a.BroadcastID)
			w.PutVarint(a.Version)
			w.PutFloat64(a.Frac)
			w.PutUvarint(uint64(len(a.Parts)))
			for _, p := range a.Parts {
				w.PutVarint(int64(p))
			}
			w.PutString(a.Loss)
			w.PutFloat64(a.L2)
			w.PutFloat64(a.L1)
			return nil
		},
		func(r *cluster.BinReader) (any, error) {
			a := GradOpArgs{BroadcastID: r.String(), Version: r.Varint(), Frac: r.Float64()}
			if n := r.Length(1); n > 0 {
				a.Parts = make([]int, n)
				for i := range a.Parts {
					a.Parts[i] = int(r.Varint())
				}
			}
			a.Loss, a.L2, a.L1 = r.String(), r.Float64(), r.Float64()
			return a, r.Err()
		})
}

func asPayloadVec(v any) (la.Vec, error) {
	w, ok := v.(la.Vec)
	if !ok {
		return nil, fmt.Errorf("opt: payload vector decoded as %T", v)
	}
	return w, nil
}
