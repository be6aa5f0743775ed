// Package fracshare is the fractional-capacity subsystem (§5.13): it lets a
// rendering node run more than one task at a time by splitting the node's
// capacity into shares, and re-prices every running task's completion time
// deterministically whenever a share changes mid-task.
//
// The model follows "Dynamic Fractional Resource Scheduling vs. Batch
// Scheduling" (Casanova, Stillwell, Vivien — arXiv:1106.4985): a node
// exposes K task slots; compute capacity is divided linearly (a task at
// share s progresses at rate s), while I/O-heavy tasks contend
// super-linearly — co-running disk loads thrash the spindle, so n I/O-heavy
// tasks each progress at share/n^(γ−1) for a configurable γ ≥ 1. A share of
// zero suspends a task entirely, which is how a co-scheduled batch task is
// preempted the instant an interactive frame lands on its node.
//
// Everything here runs on the simulator's virtual clock and uses only
// arithmetic on the inputs it is handed, so results are bit-reproducible at
// any worker count. The same Slot accounting drives the live service's
// worker slots, where the operating system does the actual time-slicing and
// the accounting only feeds the /metrics gauges.
package fracshare

import (
	"fmt"
	"math"

	"vizsched/internal/units"
)

// Defaults for the zero fields of Config.
const (
	// DefaultSlots is K, the per-node task-slot count: one demand task plus
	// one co-scheduled guest is the configuration OURS's co-scheduling uses,
	// and two concurrent tasks is also the DFRS paper's most common packing.
	DefaultSlots = 2
	// DefaultIOGamma is the super-linear I/O contention exponent: two
	// co-running loads each see share/2^0.5 ≈ 71% of their fair disk share.
	DefaultIOGamma = 1.5
	// DefaultCoShare is the fractional share a co-scheduled batch task runs
	// at while its node is otherwise idle. Half capacity keeps the guest's
	// memory-bandwidth and cache footprint small enough that the paper's
	// hit-cost model for the next interactive frame stays honest.
	DefaultCoShare = 0.5
)

// Config enables and tunes the fractional-capacity layer. The zero value of
// each field selects its default; a nil *Config disables the subsystem
// entirely (the engine and the live head both treat nil as "off", keeping
// golden outputs bit-identical).
type Config struct {
	// Slots is K, the maximum number of concurrently running tasks per node.
	Slots int
	// IOGamma is the super-linear I/O contention exponent γ ≥ 1: n co-running
	// I/O-heavy tasks each progress at share/n^(γ−1). 1 means disk bandwidth
	// divides as fairly as compute does.
	IOGamma float64
	// CoShare is the share a co-scheduled batch task receives while no demand
	// task runs on its node (OURS's ε-guard reclaim, §5.13). Negative
	// disables co-scheduling while keeping slot execution; zero selects
	// DefaultCoShare.
	CoShare float64
}

// SlotCount returns the effective K.
func (c *Config) SlotCount() int {
	if c == nil || c.Slots <= 0 {
		return DefaultSlots
	}
	return c.Slots
}

// Gamma returns the effective I/O contention exponent.
func (c *Config) Gamma() float64 {
	if c == nil || c.IOGamma < 1 {
		return DefaultIOGamma
	}
	return c.IOGamma
}

// CoShareValue returns the effective co-scheduled share in [0,1]; zero means
// co-scheduling is disabled.
func (c *Config) CoShareValue() float64 {
	if c == nil || c.CoShare < 0 {
		return 0
	}
	s := c.CoShare
	if s == 0 {
		s = DefaultCoShare
	}
	if s > 1 {
		s = 1
	}
	return s
}

// IOPenalty returns the slowdown divisor for one of nIO co-running I/O-heavy
// tasks under exponent gamma: nIO^(γ−1), floored at 1.
func IOPenalty(nIO int, gamma float64) float64 {
	if nIO <= 1 || gamma <= 1 {
		return 1
	}
	return math.Pow(float64(nIO), gamma-1)
}

// Slot is one running task's progress account under a time-varying share.
// The task carries Total full-share work; at any instant it progresses at
// rate = share/penalty full-share seconds per virtual second. SetRate folds
// the elapsed progress in before changing the rate, so the completion time
// depends only on the piecewise-constant rate function — not on how often or
// in what call pattern the owner re-prices — and a rate ≤ 1 can never finish
// the task before its full-share lower bound. Both properties are pinned by
// the package's property tests.
type Slot struct {
	total float64 // full-share work, in duration units
	done  float64 // work served so far, same units
	rate  float64 // current progress rate in (0,1]; 0 = suspended
	last  units.Time
}

// NewSlot opens a progress account for a task of the given full-share
// execution time. The slot starts suspended (rate 0) at now; the owner calls
// SetRate to start it. A Slot is a value: the owner keeps it wherever it
// keeps the task.
func NewSlot(total units.Duration, now units.Time) Slot {
	if total < 0 {
		total = 0
	}
	return Slot{total: float64(total), last: now}
}

// advance folds progress since the last account into done. Monotone time is
// required; calls with now ≤ last are no-ops, which makes redundant
// re-pricing harmless.
func (s *Slot) advance(now units.Time) {
	if now <= s.last {
		return
	}
	if s.rate > 0 {
		s.done += float64(now.Sub(s.last)) * s.rate
		if s.done > s.total {
			s.done = s.total
		}
	}
	s.last = now
}

// SetRate re-prices the slot at now: elapsed progress is credited at the old
// rate, then the rate becomes share/penalty. Share is clamped to [0,1] and
// penalty floored at 1, so the rate never exceeds 1 — the invariant behind
// the full-share lower bound. Share 0 suspends the slot (preemption). It
// reports whether the rate changed; a completion time armed from Remaining
// stands until it does.
func (s *Slot) SetRate(now units.Time, share, penalty float64) (changed bool) {
	s.advance(now)
	if share < 0 {
		share = 0
	}
	if share > 1 {
		share = 1
	}
	if penalty < 1 {
		penalty = 1
	}
	old := s.rate
	s.rate = share / penalty
	return s.rate != old
}

// Rate returns the current progress rate.
func (s *Slot) Rate() float64 { return s.rate }

// Suspended reports whether the slot is currently making no progress.
func (s *Slot) Suspended() bool { return s.rate == 0 }

// Remaining returns the virtual time until completion at the current rate.
// ok is false while the slot is suspended (it will never complete without a
// new rate). A finished slot returns (0, true).
func (s *Slot) Remaining(now units.Time) (units.Duration, bool) {
	s.advance(now)
	left := s.total - s.done
	if left <= 0 {
		return 0, true
	}
	if s.rate == 0 {
		return 0, false
	}
	d := units.Duration(math.Ceil(left / s.rate))
	return d, true
}

// Finished reports whether the slot's work is fully served as of now.
func (s *Slot) Finished(now units.Time) bool {
	s.advance(now)
	return s.total-s.done <= 0
}

// Finish force-completes the slot at now — the owner calls it when the
// completion timer it armed from Remaining fires, absorbing the sub-unit
// rounding between float progress and the integer virtual clock.
func (s *Slot) Finish(now units.Time) {
	s.advance(now)
	s.done = s.total
}

// DoneWork returns the full-share work served so far.
func (s *Slot) DoneWork(now units.Time) units.Duration {
	s.advance(now)
	return units.Duration(s.done)
}

// String renders the slot's progress for debugging.
func (s *Slot) String() string {
	return fmt.Sprintf("slot(%.0f/%.0f @%.3f)", s.done, s.total, s.rate)
}

// Meter integrates each node's busy share over virtual time — the per-node
// utilization account behind the fracshare gauges and the sweep's
// reclaimed-idle column. The owner calls Set whenever a node's aggregate
// busy share changes; the integral accumulates exactly because the share is
// piecewise constant between calls.
type Meter struct {
	share []float64
	last  []units.Time
	busy  []float64 // ∫ share dt per node, in duration units
}

// NewMeter builds a meter over n nodes, all idle at time zero.
func NewMeter(n int) *Meter {
	return &Meter{
		share: make([]float64, n),
		last:  make([]units.Time, n),
		busy:  make([]float64, n),
	}
}

// Set updates node k's aggregate busy share (clamped to [0,1]) at now,
// folding the previous share's span into the busy integral.
func (m *Meter) Set(k int, share float64, now units.Time) {
	if k < 0 || k >= len(m.share) {
		return
	}
	if now > m.last[k] {
		m.busy[k] += float64(now.Sub(m.last[k])) * m.share[k]
		m.last[k] = now
	}
	if share < 0 {
		share = 0
	}
	if share > 1 {
		share = 1
	}
	m.share[k] = share
}

// Finish folds every node's open span up to the horizon.
func (m *Meter) Finish(horizon units.Time) {
	for k := range m.share {
		m.Set(k, m.share[k], horizon)
	}
}

// Busy returns node k's accumulated busy-share integral.
func (m *Meter) Busy(k int) units.Duration {
	if k < 0 || k >= len(m.busy) {
		return 0
	}
	return units.Duration(m.busy[k])
}

// Fraction returns node k's mean busy share over the horizon.
func (m *Meter) Fraction(k int, horizon units.Time) float64 {
	if horizon <= 0 || k < 0 || k >= len(m.busy) {
		return 0
	}
	return m.busy[k] / float64(horizon)
}

// Nodes returns the meter's node count.
func (m *Meter) Nodes() int { return len(m.share) }
