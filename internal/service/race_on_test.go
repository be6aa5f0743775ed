//go:build race

package service

// raceEnabled: under the race detector sync.Pool drops a share of what is
// put into it on purpose, so allocation ceilings on pooled paths do not hold.
const raceEnabled = true
