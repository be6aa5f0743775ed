package prefetch

import (
	"vizsched/internal/core"
	"vizsched/internal/units"
)

// Governor meters prefetch bytes per node with a token bucket: tokens are
// bytes, refilled at RateBytesPerSec up to Burst. Demand I/O never passes
// through the governor — only warming does — so however aggressive the
// predictor gets, background transfer per node is bounded by
// burst + rate·Δt bytes over any window Δt, which is the no-starvation
// property the tests assert.
//
// All arithmetic is integer and overflow-safe; refill is lazy (computed at
// Allow time), so an idle governor costs nothing.
type Governor struct {
	rate  units.Bytes // per second
	burst units.Bytes

	tokens []units.Bytes
	last   []units.Time
}

// NewGovernor builds a governor for n nodes with full buckets, so a cold
// boot can begin warming immediately.
func NewGovernor(n int, rate, burst units.Bytes) *Governor {
	if n <= 0 {
		panic("prefetch: governor needs at least one node")
	}
	if rate <= 0 || burst <= 0 {
		panic("prefetch: governor rate and burst must be positive")
	}
	g := &Governor{
		rate:   rate,
		burst:  burst,
		tokens: make([]units.Bytes, n),
		last:   make([]units.Time, n),
	}
	for k := range g.tokens {
		g.tokens[k] = burst
	}
	return g
}

// refill advances node k's bucket to now.
func (g *Governor) refill(k int, now units.Time) {
	elapsed := now.Sub(g.last[k])
	if elapsed <= 0 {
		return
	}
	g.last[k] = now
	// Overflow-safe split: a gap long enough to fill the bucket from empty
	// short-circuits, so secs*rate below is bounded by burst + rate.
	secs := int64(elapsed / units.Duration(units.Second))
	if secs >= int64(g.burst/g.rate)+1 {
		g.tokens[k] = g.burst
		return
	}
	rem := units.Bytes(elapsed % units.Duration(units.Second))
	add := units.Bytes(secs)*g.rate + g.rate*rem/units.Bytes(units.Second)
	g.tokens[k] += add
	if g.tokens[k] > g.burst {
		g.tokens[k] = g.burst
	}
}

// Allow asks to move size warming bytes to node k at the given time,
// deducting on success. Oversize requests (> burst) are always denied.
func (g *Governor) Allow(k core.NodeID, size units.Bytes, now units.Time) bool {
	g.refill(int(k), now)
	if size > g.tokens[int(k)] {
		return false
	}
	g.tokens[int(k)] -= size
	return true
}

// Available returns node k's current token balance.
func (g *Governor) Available(k core.NodeID, now units.Time) units.Bytes {
	g.refill(int(k), now)
	return g.tokens[int(k)]
}
