// Package autoscale decides when the fleet itself becomes a scheduling
// decision: a hysteresis-banded control loop that watches queue depth,
// per-tenant SLO headroom (the QoS overload-ladder state), and cache
// pressure, and emits scale-up or graceful-drain decisions.
//
// The policy is a pure function of virtual-time signals — no wall clock, no
// randomness — so the simulator stays bit-deterministic at any `-parallel`
// and the live head can evaluate the same policy on its dispatcher tick.
// Executing a decision (demoting home sets, migrating queued batch tasks,
// pre-warming the survivors' caches) is the caller's job; this package only
// says *when* and *which node*.
package autoscale

import (
	"vizsched/internal/core"
	"vizsched/internal/units"
)

// Config tunes the control loop. The zero value is not usable on its own;
// callers normalize through withDefaults, so partially filled literals get
// sane bands. A nil *Config disables autoscaling entirely — the invariant
// shared by every optional subsystem in this repo.
type Config struct {
	// Interval is the control-loop period: how often the policy samples
	// its signals. Sim registers a virtual-time ticker; the live head
	// piggybacks on its health-check tick.
	Interval units.Duration

	// MinNodes and MaxNodes band the active fleet. MaxNodes is clamped to
	// the provisioned fleet by the caller; zero means "use the fleet size".
	MinNodes int
	MaxNodes int
	// Initial is the number of nodes active at start; zero means MaxNodes
	// (start from the fixed-fleet shape and let the policy shrink it).
	Initial int

	// QueueHigh and QueueLow are per-active-node queue-depth bands: above
	// QueueHigh counts as scale-up pressure, at or below QueueLow counts
	// as drain pressure, and the gap between them is the hysteresis dead
	// band where the controller holds.
	QueueHigh float64
	QueueLow  float64

	// HeadroomMin is the SLO-headroom floor: when any tenant's headroom
	// (1 − p95/SLO, clamped to [0,1]) falls below it, or the overload
	// ladder leaves level 0, the policy treats the sample as scale-up
	// pressure regardless of queue depth. Draining requires full-fleet
	// headroom strictly above HeadroomMin.
	HeadroomMin float64

	// CacheHighWater blocks drains while the active fleet's aggregate
	// cache utilization exceeds it: the survivors could not absorb the
	// victim's working set without evicting hot data, so shrinking would
	// trade node-hours for cold-start misses.
	CacheHighWater float64

	// HoldUp and HoldDown are the hysteresis run lengths: how many
	// consecutive pressured samples the loop must see before acting.
	// Scale-up reacts faster than drain by default — adding capacity is
	// cheap to undo, draining is not.
	HoldUp   int
	HoldDown int

	// Cooldown is the minimum spacing between consecutive decisions, so
	// the loop observes the effect of one action before taking another.
	Cooldown units.Duration

	// MaxDrain bounds how long a drain may wait for running tasks to
	// finish and evacuation warms to land; past it the drain completes
	// anyway and whatever orphans remain unwarmed are dropped (counted in
	// the autoscale outcome, never fed to crash-recovery re-seeding).
	MaxDrain units.Duration

	// Warmup is the bring-up pre-warm window: for this long after a node
	// (re)activates, the control loop keeps offering the predictor's
	// hottest chunks to the prefetch governor for copying onto the new
	// node, so it joins the fleet warm instead of paying demand misses on
	// the interactive path.
	Warmup units.Duration
}

// DefaultConfig returns the tuning used by the elasticsweep experiment.
func DefaultConfig() *Config {
	c := Config{}
	return c.withDefaults()
}

// withDefaults fills zero fields with the defaults. It returns a copy.
func (c Config) withDefaults() *Config {
	if c.Interval <= 0 {
		c.Interval = 500 * units.Millisecond
	}
	if c.MinNodes <= 0 {
		c.MinNodes = 1
	}
	if c.QueueHigh <= 0 {
		c.QueueHigh = 4
	}
	if c.QueueLow <= 0 {
		c.QueueLow = 0.5
	}
	if c.HeadroomMin <= 0 {
		c.HeadroomMin = 0.2
	}
	if c.CacheHighWater <= 0 {
		c.CacheHighWater = 0.9
	}
	if c.HoldUp <= 0 {
		c.HoldUp = 2
	}
	if c.HoldDown <= 0 {
		c.HoldDown = 8
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * units.Second
	}
	if c.MaxDrain <= 0 {
		c.MaxDrain = 30 * units.Second
	}
	if c.Warmup <= 0 {
		c.Warmup = 10 * units.Second
	}
	return &c
}

// Signals is one control-loop sample. Every field is derived from
// virtual-time state (or dispatcher-owned tables on the live head) so
// evaluating the policy is deterministic.
type Signals struct {
	// ActiveNodes is the number of nodes currently accepting work;
	// DrainingNodes counts drains still in flight (they hold capacity but
	// take no new work, and the policy won't stack another drain on top).
	ActiveNodes   int
	DrainingNodes int

	// QueueDepth is every job waiting for a node: the scheduler's working
	// window plus the QoS fair queues behind it.
	QueueDepth int

	// MinHeadroom is the worst tenant's SLO headroom, 1 − p95/SLO clamped
	// to [0,1]; 1 when no interactive latency has been observed yet.
	MinHeadroom float64
	// LadderLevel is the QoS overload-ladder level (0 = healthy).
	LadderLevel int

	// CacheUtilization is aggregate used/quota across active nodes' caches.
	CacheUtilization float64
}

// Decision is the policy's output for one sample.
type Decision int

const (
	// Hold takes no action this sample.
	Hold Decision = iota
	// ScaleUp activates one more node.
	ScaleUp
	// Drain starts a graceful drain of one node.
	Drain
)

// String names the decision for logs and experiment tables.
func (d Decision) String() string {
	switch d {
	case ScaleUp:
		return "scale-up"
	case Drain:
		return "drain"
	default:
		return "hold"
	}
}

// Policy is the hysteresis-banded controller. Not safe for concurrent use;
// both planes evaluate it from a single goroutine (the DES event loop, the
// head's dispatcher).
type Policy struct {
	cfg *Config

	highRun int // consecutive samples with scale-up pressure
	lowRun  int // consecutive samples with drain pressure

	acted   bool       // at least one decision has been issued
	lastAct units.Time // virtual time of the last non-Hold decision
}

// NewPolicy builds a controller from cfg (nil selects the defaults).
func NewPolicy(cfg *Config) *Policy {
	if cfg == nil {
		return &Policy{cfg: DefaultConfig()}
	}
	return &Policy{cfg: cfg.withDefaults()}
}

// Config exposes the normalized tuning the policy runs with.
func (p *Policy) Config() *Config { return p.cfg }

// Evaluate consumes one sample and returns the action to take now. The
// hysteresis state advances on every call, so callers must invoke it once
// per control-loop tick, pressured or not.
func (p *Policy) Evaluate(now units.Time, s Signals) Decision {
	cfg := p.cfg
	active := s.ActiveNodes
	if active < 1 {
		active = 1
	}
	perNode := float64(s.QueueDepth) / float64(active)

	sloPressed := s.LadderLevel > 0 || s.MinHeadroom < cfg.HeadroomMin
	up := perNode > cfg.QueueHigh || sloPressed
	down := !up && perNode <= cfg.QueueLow && s.LadderLevel == 0 &&
		s.MinHeadroom > cfg.HeadroomMin

	// The runs are mutually exclusive: any sample that is not drain-quiet
	// resets the drain run, and vice versa. The dead band between QueueLow
	// and QueueHigh resets both, which is what makes the band sticky.
	if up {
		p.highRun++
		p.lowRun = 0
	} else if down {
		p.lowRun++
		p.highRun = 0
	} else {
		p.highRun, p.lowRun = 0, 0
	}

	if p.acted && now.Sub(p.lastAct) < cfg.Cooldown {
		return Hold
	}

	if p.highRun >= cfg.HoldUp && cfg.MaxNodes > 0 && s.ActiveNodes+s.DrainingNodes < cfg.MaxNodes {
		p.note(now)
		return ScaleUp
	}
	if p.lowRun >= cfg.HoldDown && s.DrainingNodes == 0 &&
		s.ActiveNodes > cfg.MinNodes &&
		s.CacheUtilization <= cfg.CacheHighWater {
		p.note(now)
		return Drain
	}
	return Hold
}

// note records a decision for cooldown spacing and resets both runs, so the
// next action needs a fresh pressure streak.
func (p *Policy) note(now units.Time) {
	p.acted = true
	p.lastAct = now
	p.highRun, p.lowRun = 0, 0
}

// Candidate describes one drainable node for victim selection.
type Candidate struct {
	ID core.NodeID
	// Busy reports whether the node is currently executing or loading.
	Busy bool
	// HomePressure is the number of chunks whose home set includes the
	// node — the amount of re-homing and pre-warming a drain would cost.
	HomePressure int
	// CacheBytes is the node's resident cache footprint.
	CacheBytes units.Bytes
}

// PickVictim chooses which node a Drain decision removes: idle before busy,
// then the smallest home pressure (cheapest re-home), then the smallest
// cache footprint (least warmth thrown away), then the highest ID so the
// choice is total and deterministic. Returns false if there are no
// candidates.
func PickVictim(cands []Candidate) (core.NodeID, bool) {
	if len(cands) == 0 {
		return 0, false
	}
	best := 0
	for i := 1; i < len(cands); i++ {
		if victimLess(cands[i], cands[best]) {
			best = i
		}
	}
	return cands[best].ID, true
}

// victimLess orders candidates by drain preference.
func victimLess(a, b Candidate) bool {
	if a.Busy != b.Busy {
		return !a.Busy
	}
	if a.HomePressure != b.HomePressure {
		return a.HomePressure < b.HomePressure
	}
	if a.CacheBytes != b.CacheBytes {
		return a.CacheBytes < b.CacheBytes
	}
	return a.ID > b.ID
}

// Headroom computes SLO headroom from an observed p95 latency: 1 − p95/SLO
// clamped to [0,1]. A zero p95 (no observations) counts as full headroom.
func Headroom(p95, slo units.Duration) float64 {
	if slo <= 0 || p95 <= 0 {
		return 1
	}
	h := 1 - float64(p95)/float64(slo)
	if h < 0 {
		return 0
	}
	if h > 1 {
		return 1
	}
	return h
}
