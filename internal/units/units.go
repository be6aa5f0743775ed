// Package units provides the elementary quantities shared by every other
// package in vizsched: byte sizes, the simulated-time type used by the
// discrete-event kernel, and data-rate helpers.
//
// Simulated time is kept separate from wall-clock time on purpose. All
// rendering, I/O, and queueing dynamics advance a virtual clock, while
// scheduling *cost* (Table III of the paper) is measured in real wall time
// around the actual scheduler code. Mixing the two types is a compile error,
// which is the point.
package units

import (
	"fmt"
	"time"
)

// Bytes is a size in bytes. It is a distinct type so that sizes, times and
// rates cannot be accidentally interchanged.
type Bytes int64

// Common byte-size multiples.
const (
	KB Bytes = 1 << 10
	MB Bytes = 1 << 20
	GB Bytes = 1 << 30
	TB Bytes = 1 << 40
)

// String renders the size using the largest fitting binary unit, matching
// the style of the paper's tables (e.g. "512MB", "2GB").
func (b Bytes) String() string {
	switch {
	case b >= TB && b%TB == 0:
		return fmt.Sprintf("%dTB", b/TB)
	case b >= GB && b%GB == 0:
		return fmt.Sprintf("%dGB", b/GB)
	case b >= MB && b%MB == 0:
		return fmt.Sprintf("%dMB", b/MB)
	case b >= KB && b%KB == 0:
		return fmt.Sprintf("%dKB", b/KB)
	case b >= GB:
		return fmt.Sprintf("%.2fGB", float64(b)/float64(GB))
	case b >= MB:
		return fmt.Sprintf("%.2fMB", float64(b)/float64(MB))
	default:
		return fmt.Sprintf("%dB", int64(b))
	}
}

// Time is a point on the simulated clock, in nanoseconds since the start of
// the simulation. The zero value is the simulation epoch.
type Time int64

// Duration is a span of simulated time, in nanoseconds. It deliberately
// mirrors time.Duration so the conversion helpers below are trivial and the
// formatting is familiar.
type Duration int64

// Common durations, mirroring the time package.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add advances a time by a duration.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t−u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t precedes u on the simulated clock.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u on the simulated clock.
func (t Time) After(u Time) bool { return t > u }

// Seconds returns the time as a float64 number of simulated seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time as a duration since the simulation epoch.
func (t Time) String() string { return time.Duration(t).String() }

// Seconds returns the duration as a float64 number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds returns the duration as a float64 number of milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Microseconds returns the duration as a float64 number of microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Std converts a simulated duration to a time.Duration for formatting.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// String formats the duration using the time package's conventions.
func (d Duration) String() string { return time.Duration(d).String() }

// Rate is a data-transfer rate in bytes per simulated second.
type Rate float64

// Common rates. DiskSATA approximates the sustained sequential read rate of
// the 2012-era spinning disks behind the paper's "tens of seconds per chunk"
// observation; GPUUpload approximates PCIe 2.0 x16 host-to-device copies.
const (
	MBps Rate = 1 << 20
	GBps Rate = 1 << 30
)

// TimeFor returns the simulated time needed to move n bytes at rate r.
// A non-positive rate yields zero (treated as "instantaneous"), which keeps
// degenerate configurations from producing negative or infinite times.
func (r Rate) TimeFor(n Bytes) Duration {
	if r <= 0 || n <= 0 {
		return 0
	}
	return Duration(float64(n) / float64(r) * float64(Second))
}

// String formats the rate in MB/s or GB/s.
func (r Rate) String() string {
	if r >= GBps {
		return fmt.Sprintf("%.1fGB/s", float64(r)/float64(GBps))
	}
	return fmt.Sprintf("%.1fMB/s", float64(r)/float64(MBps))
}

// CeilDiv returns ceil(a/b) for positive b. It is the decomposition formula
// m = ⌈Dsize / Chkmax⌉ from §III-C of the paper, and general enough to live
// here.
func CeilDiv(a, b int64) int64 {
	if b <= 0 {
		panic("units.CeilDiv: non-positive divisor")
	}
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}
