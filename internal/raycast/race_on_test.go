//go:build race

package raycast

// raceEnabled: under the race detector sync.Pool drops a share of what is
// put back, so img.Get allocates behind the renderer's back and allocation
// ceilings do not hold.
const raceEnabled = true
