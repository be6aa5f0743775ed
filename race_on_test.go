//go:build race

package vizsched

// raceEnabled: the race detector instruments every memory access, which
// changes what the schedulers' table operations cost relative to each
// other, so tests that order measured costs do not hold under it.
const raceEnabled = true
