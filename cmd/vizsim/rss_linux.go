package main

import "syscall"

// peakRSS returns the process's peak resident set size in bytes, or 0 when
// the kernel does not say.
func peakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // Linux reports kilobytes
}
