package cluster

// The layers above this package own payload types this package cannot
// import. The external test package can: it hands frames carrying them to
// FuzzDecodeFrame through ExtraFuzzSeeds, building the malformed ones with
// WrapFrame. It also checks the patches the driver's change log yields
// against diffVec, the oracle, and reads the reply-form counters.
var (
	ExtraFuzzSeeds [][]byte
	WrapFrame      = wrapFrame
	DiffVec        = diffVec
)

// FetchReplies reads async_broadcast_fetches_total by reply form.
func FetchReplies() (patch, diff, dense int64) {
	return fetchPatch.Value(), fetchDiff.Value(), fetchDense.Value()
}
