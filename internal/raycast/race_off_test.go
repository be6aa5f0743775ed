//go:build !race

package raycast

const raceEnabled = false
