package cluster

// The layers above this package own payload types this package cannot
// import. The external test package can: it hands frames carrying them to
// FuzzDecodeFrame through ExtraFuzzSeeds, building the malformed ones with
// WrapFrame.
var (
	ExtraFuzzSeeds [][]byte
	WrapFrame      = wrapFrame
)
