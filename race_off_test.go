//go:build !race

package vizsched

const raceEnabled = false
