//go:build !race

package maxip

const raceEnabled = false
