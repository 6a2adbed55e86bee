package opt

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/la"
)

// Sparse-delta task path. When a task's partitions are sparse enough and
// its loss is linear (see LinearLoss), the gradient kernels accumulate only
// the coordinates the sampled rows touch — O(nnz) per task instead of O(d)
// — and ship the result as a pooled la.DeltaVec instead of a dense vector.
// The drivers recognise the payload type and apply the update in O(nnz)
// too (see lazy.go). Sampling walks the same row sampler in the same order
// as the dense sweep, and the scatter arithmetic mirrors the
// dense kernels operation for operation, so on a fixed seed the sparse and
// dense paths produce bitwise-identical gradients (regression-tested in
// sparse_test.go).

// sparseDensityThreshold gates the sparse task path: a task takes it only
// when every partition it sweeps has density (nnz / rows·cols) at or below
// this value (the paper's sparse datasets sit near 0.2% density). It is a
// variable for tests, which pin it to 0 to force the dense path; treat it
// as a constant in production code.
var sparseDensityThreshold = 0.1

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
		if err != nil || p.X.Density() > sparseDensityThreshold {
			return false
		}
		totalNNZ += p.X.NNZ()
	}
	return frac*float64(totalNNZ)*sparseWorkFactor <= float64(dim)
}

// gradSweepSparse is the sparse counterpart of gradSweep: walk the rows s
// samples from partition p (exactly as the dense sweep does) and scatter
// the per-sample gradient coefficient into the accumulator, touching only
// the row's nonzeros.
func gradSweepSparse(lin LinearLoss, p *dataset.Partition, s *cluster.RowSampler, w la.Vec, acc *la.DeltaAccum) int {
	n, rows := 0, p.NumRows()
	for local := s.Next(0, rows); local < rows; local = s.Next(local+1, rows) {
		idx, val := p.X.RowNZ(local)
		c := lin.GradCoeff(la.SparseDot(idx, val, w), p.Y[local])
		acc.Accum(c, idx, val)
		n++
	}
	return n
}

// SagaDelta was the sparse SAGA payload of two sums; SagaKernel now ships
// their difference as a *la.DeltaVec. Nothing produces it: its last
// reference is benchmark/probe.go's payload recycler, and it goes with that
// case under ROADMAP 8(c).
type SagaDelta struct {
	Sum     *la.DeltaVec
	HistSum *la.DeltaVec
}

// Binary payload codes claimed by the opt layer (the core layer owns 16;
// see internal/core/codec.go). 17 and 18 carried the two-sum SAGA payloads
// and stay retired: a frame naming either is refused, never reinterpreted.
const (
	payloadGradOpArgs  byte = 19
	payloadCDPartial   byte = 20
	payloadADMMPartial byte = 21
	payloadCDDelta     byte = 22
)

// putBlock appends a coordinate block (any order) as a count and uvarints.
func putBlock(w *cluster.BinWriter, block []int32) {
	w.PutUvarint(uint64(len(block)))
	for _, j := range block {
		w.PutUvarint(uint64(uint32(j)))
	}
}

// readBlock is putBlock's inverse; an empty block decodes as nil. The
// coordinates are range-checked by the kernel that indexes by them.
func readBlock(r *cluster.BinReader) []int32 {
	n := r.Length(1)
	if n == 0 {
		return nil
	}
	block := make([]int32, n)
	for i := range block {
		block[i] = int32(uint32(r.Uvarint()))
	}
	return block
}

// registerPayload registers T's wire codec under code; the cluster codec
// picks it by the value's type, so enc and dec see the concrete T.
func registerPayload[T any](code byte, enc func(*cluster.BinWriter, T) error, dec func(*cluster.BinReader) (T, error)) {
	var proto T
	cluster.RegisterPayloadCodec(code, proto,
		func(w *cluster.BinWriter, v any) error { return enc(w, v.(T)) },
		func(r *cluster.BinReader) (any, error) { return dec(r) })
}

// readDelta decodes a payload value that must be a sparse delta or nil.
func readDelta(r *cluster.BinReader) (*la.DeltaVec, error) {
	v, err := r.Value()
	if err != nil || v == nil {
		return nil, err
	}
	d, ok := v.(*la.DeltaVec)
	if !ok {
		return nil, fmt.Errorf("opt: encoded sparse delta decoded as %T", v)
	}
	return d, nil
}

func init() {
	registerPayload(payloadGradOpArgs,
		func(w *cluster.BinWriter, a GradOpArgs) error {
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
			w.PutString(a.AuxID)
			w.PutVarint(a.AuxVersion)
			putBlock(w, a.Block)
			w.PutFloat64(a.Rho)
			w.PutFloat64(a.CGTol)
			w.PutVarint(int64(a.CGIters))
			return nil
		},
		func(r *cluster.BinReader) (GradOpArgs, error) {
			a := GradOpArgs{BroadcastID: r.String(), Version: r.Varint(), Frac: r.Float64()}
			if n := r.Length(1); n > 0 {
				a.Parts = make([]int, n)
				for i := range a.Parts {
					a.Parts[i] = int(r.Varint())
				}
			}
			a.Loss, a.L2, a.L1 = r.String(), r.Float64(), r.Float64()
			a.AuxID, a.AuxVersion, a.Block = r.String(), r.Varint(), readBlock(r)
			a.Rho, a.CGTol, a.CGIters = r.Float64(), r.Float64(), int(r.Varint())
			return a, r.Err()
		})
	registerPayload(payloadCDPartial,
		func(w *cluster.BinWriter, p CDPartial) error {
			putBlock(w, p.Block)
			if err := w.PutValue(p.G); err != nil {
				return err
			}
			return w.PutValue(p.H)
		},
		func(r *cluster.BinReader) (p CDPartial, err error) {
			p.Block = readBlock(r)
			if p.G, err = readVec(r, true); err == nil {
				p.H, err = readVec(r, true)
			}
			if err == nil && (len(p.G) != len(p.Block) || len(p.H) != len(p.Block)) {
				err = fmt.Errorf("opt: cd-partial of %d coordinates carries %d gradients, %d curvatures", len(p.Block), len(p.G), len(p.H))
			}
			return p, err
		})
	registerPayload(payloadADMMPartial,
		func(w *cluster.BinWriter, p ADMMPartial) error {
			w.PutFloat64(p.PrimalSq)
			return w.PutValue(p.XPlusU)
		},
		func(r *cluster.BinReader) (p ADMMPartial, err error) {
			p.PrimalSq = r.Float64()
			p.XPlusU, err = readVec(r, true)
			return p, err
		})
	registerPayload(payloadCDDelta,
		func(w *cluster.BinWriter, d CDDelta) error {
			w.PutVarint(d.RunID)
			w.PutVarint(d.Round)
			if d.Delta == nil {
				return w.PutValue(nil) // a typed nil pointer would not encode as nil
			}
			return w.PutValue(d.Delta)
		},
		func(r *cluster.BinReader) (d CDDelta, err error) {
			d.RunID, d.Round = r.Varint(), r.Varint()
			d.Delta, err = readDelta(r)
			return d, err
		})
}
