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
// message.go). It makes one pass and returns nil when the patch would not
// encode shorter than next itself (PatchShorter), giving up as soon as its
// entries alone, at 9 bytes or more each, rule that out. The delta comes from
// the la pool; the caller hands it back with la.PutDelta.
func diffVec(base, next la.Vec) *la.DeltaVec {
	if len(base) != len(next) || len(next) > math.MaxInt32 {
		return nil
	}
	d := la.GetDelta(0, len(next))
	for i, x := range next {
		if math.Float64bits(x) == math.Float64bits(base[i]) {
			continue
		}
		if 1+9*(len(d.Idx)+1) >= 8*len(next) {
			la.PutDelta(d)
			return nil
		}
		d.Idx = append(d.Idx, int32(i))
		d.Val = append(d.Val, x)
	}
	if !PatchShorter(len(next), d.Idx) {
		la.PutDelta(d)
		return nil
	}
	return d
}

// PatchShorter reports whether a patch of a length-n vector at the sorted,
// distinct coordinates idx encodes shorter than the dense vector: the one
// rule for shipping a patch rather than the value, whoever found the
// coordinates — diffVec, or the driver store's change log before it builds
// a dense reply.
func PatchShorter(n int, idx []int32) bool {
	size, prev := uvarintLen(uint64(len(idx))), int32(0)
	for _, j := range idx {
		size += 8 + uvarintLen(uint64(j-prev))
		prev = j
	}
	return size < 8*n
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
