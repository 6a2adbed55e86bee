package cluster

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/la"
)

// diffVec lists the coordinates at which next differs from base — compared
// as float64 bit patterns, so 0.0 → -0.0 and a changed NaN payload count —
// together with next's values there: the patch of the fetch protocol (see
// message.go). It makes one pass and gives up, returning nil, as soon as the
// patch would encode no shorter than next itself. The delta comes from the
// la pool; the caller hands it back with la.PutDelta.
func diffVec(base, next la.Vec) *la.DeltaVec {
	if len(base) != len(next) || len(next) > math.MaxInt32 {
		return nil
	}
	dense := 8 * len(next)
	d := la.GetDelta(0, len(next))
	size, prev := 0, 0
	for i, x := range next {
		if math.Float64bits(x) == math.Float64bits(base[i]) {
			continue
		}
		size += 8 + uvarintLen(uint64(i-prev))
		if size+uvarintLen(uint64(len(d.Idx)+1)) >= dense {
			la.PutDelta(d)
			return nil
		}
		d.Idx = append(d.Idx, int32(i))
		d.Val = append(d.Val, x)
		prev = i
	}
	return d
}

// patchAt lists next's values at the sorted, distinct coordinates idx — a
// patch built from the driver's change log — or returns nil when it would
// encode no shorter than next itself, the rule diffVec applies as it goes.
// The delta comes from the la pool.
func patchAt(next la.Vec, idx []int32) *la.DeltaVec {
	size, prev := uvarintLen(uint64(len(idx))), int32(0)
	for _, j := range idx {
		size += 8 + uvarintLen(uint64(j-prev))
		prev = j
	}
	if size >= 8*len(next) {
		return nil
	}
	d := la.GetDelta(len(idx), len(next))
	copy(d.Idx, idx)
	for k, j := range idx {
		d.Val[k] = next[j]
	}
	return d
}

// uvarintLen is the encoded size of v as a uvarint: 7 bits to the byte.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// applyPatch rebuilds the vector a patch reply stands for: base (the
// worker's version have of the id) with the listed coordinates overwritten,
// in base itself when inPlace, else in a copy. A reply that does not fit the
// request — a base the worker did not offer, a value that is not a sparse
// delta, a dimension other than base's — is an error, and nothing is written.
func applyPatch(rep *FetchReply, have int64, base any, inPlace bool) (la.Vec, error) {
	b, ok := base.(la.Vec)
	if rep.Base != have || !ok {
		return nil, fmt.Errorf("patch against version %d, but the worker offered %d", rep.Base, have)
	}
	d, ok := rep.Value.(*la.DeltaVec)
	if !ok {
		return nil, fmt.Errorf("patch reply carries a %T, not a sparse delta", rep.Value)
	}
	if d.N != len(b) {
		return nil, fmt.Errorf("patch of dimension %d against a base of dimension %d", d.N, len(b))
	}
	v := b
	if !inPlace {
		v = la.GetVec(len(b))
		copy(v, b)
	}
	for k, j := range d.Idx {
		v[j] = d.Val[k]
	}
	return v, nil
}
