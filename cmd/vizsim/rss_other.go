//go:build !linux

package main

// peakRSS returns 0: the peak resident set is read on Linux only.
func peakRSS() int64 { return 0 }
