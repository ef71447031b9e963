//go:build race

package search

// raceEnabled reports a -race build. Under the race detector sync.Pool
// drops a random share of Puts, so allocation counts are not stable, and
// the reference oracle runs about ten times slower.
const raceEnabled = true
