//go:build race

package sim

// raceEnabled: the race detector allocates behind the program's back, so
// allocation ceilings do not hold under it.
const raceEnabled = true
