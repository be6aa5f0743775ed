//go:build !linux

package main

import "time"

var processStart = time.Now()

// threadCPU falls back to wall time where the thread CPU clock is not
// reachable through package syscall; the reference clock is then only right
// on an otherwise idle machine.
func threadCPU() int64 { return int64(time.Since(processStart)) }
