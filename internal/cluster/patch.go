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

// uvarintLen is the encoded size of v as a uvarint: 7 bits to the byte.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// applyPatch rebuilds the vector a patch reply stands for: a copy of base
// (the worker's version have of the id) with the listed coordinates
// overwritten. base itself is never written. A reply that does not fit the
// request — a base the worker did not offer, a value that is not a sparse
// delta, a dimension other than base's — is an error.
func applyPatch(rep *FetchReply, have int64, base any) (la.Vec, error) {
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
	v := la.GetVec(len(b))
	copy(v, b)
	for k, j := range d.Idx {
		v[j] = d.Val[k]
	}
	return v, nil
}
