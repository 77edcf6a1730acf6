//go:build race

package simpoint

// raceEnabled reports a race-detector build. Under it sync.Pool drops
// pooled items at random, so allocation counts do not hold.
const raceEnabled = true
