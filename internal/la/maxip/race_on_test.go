//go:build race

package maxip

// raceEnabled reports that the race detector is on: its instrumentation
// allocates, so allocation pins are skipped under it.
const raceEnabled = true
