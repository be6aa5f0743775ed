package main

import (
	"syscall"
	"unsafe"
)

// threadCPU returns the CPU time the calling thread has consumed, in
// nanoseconds (CLOCK_THREAD_CPUTIME_ID).
func threadCPU() int64 {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno)
	}
	return ts.Nano()
}
