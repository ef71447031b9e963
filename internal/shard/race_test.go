//go:build race

package shard

// raceEnabled reports a -race build, under which the search oracle
// strides its queries.
const raceEnabled = true
