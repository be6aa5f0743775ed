package autoscale

import (
	"vizsched/internal/core"
	"vizsched/internal/metrics"
	"vizsched/internal/prefetch"
	"vizsched/internal/qos"
	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// Plane is what a control plane does for the Fleet machine: the
// simulator's engine and the live head each implement it, and a test can
// fake it. The machine makes every decision; these calls only carry them
// out.
type Plane interface {
	// Busy reports whether node k is running, loading or owed work.
	Busy(k core.NodeID) bool
	// Drain is called once node k is marked draining: the plane stops
	// giving it work and hands its not-yet-running tasks back to the head
	// queue, returning how many moved.
	Drain(k core.NodeID) int
	// Warm starts (simulator) or sends (live head) one governed warm.
	Warm(d core.PrefetchDirective)
	// Retire lets node k leave once its homes are demoted and CompleteDrain
	// has run, handing back whatever it still owes; it returns how many
	// tasks moved.
	Retire(k core.NodeID) int
}

// Fleet is the elastic fleet's state machine around the Policy (§5.12),
// written once for both planes: it samples the Signals, drains the victim
// PickVictim chooses, evacuates its would-be orphans onto survivors, retires
// it when it is idle and its working set is safe (or MaxDrain has passed),
// and pre-warms nodes through their bring-up window. Scale-up itself is the
// plane's: Tick only says when. Like the Policy it reads no wall clock and
// is owned by one goroutine.
type Fleet struct {
	pol   *Policy
	head  *core.HeadState
	pref  *prefetch.Controller // nil: no evacuation or bring-up warms
	qos   *qos.Controller      // nil: full headroom at ladder level 0
	plane Plane
	out   metrics.AutoscaleOutcome

	lastEval units.Time
	// draining is the node mid-drain, -1 when none: the policy starts at
	// most one drain at a time.
	draining   core.NodeID
	drainStart units.Time
	pending    []volume.ChunkID // orphans still awaiting an evacuation warm
	// warming[k] is node k's bring-up warm deadline, zero when not warming.
	warming []units.Time
	cands   []Candidate
}

// NewFleet builds the machine for head's fleet. cfg is fitted to it:
// MaxNodes and Initial at most the node count, zero meaning all of it, and
// MinNodes at most Initial.
func NewFleet(cfg *Config, head *core.HeadState, pref *prefetch.Controller, q *qos.Controller, plane Plane) *Fleet {
	c := cfg.withDefaults()
	n := head.Nodes()
	if c.MaxNodes <= 0 || c.MaxNodes > n {
		c.MaxNodes = n
	}
	if c.Initial <= 0 || c.Initial > c.MaxNodes {
		c.Initial = c.MaxNodes
	}
	c.MinNodes = min(c.MinNodes, c.Initial)
	f := &Fleet{pol: NewPolicy(c), head: head, pref: pref, qos: q, plane: plane,
		draining: -1, warming: make([]units.Time, n)}
	f.out.MinActive, f.out.MaxActive = c.Initial, c.Initial
	return f
}

// Config is the fitted tuning the machine runs with.
func (f *Fleet) Config() *Config { return f.pol.Config() }

// Outcome is the account so far. ScaleUps, NodeSeconds and the active-count
// extrema are the simulator's to keep; the machine counts the rest.
func (f *Fleet) Outcome() *metrics.AutoscaleOutcome { return &f.out }

// Tick is one control-loop step with depth jobs waiting for a node: it
// advances the drain in flight, offers the bring-up warms, and once per
// Interval evaluates the policy. It returns ScaleUp for the plane to carry
// out, Drain when a drain began, and Hold otherwise.
func (f *Fleet) Tick(now units.Time, depth int) Decision {
	if f.draining >= 0 {
		f.advance(now)
	}
	for k, until := range f.warming {
		if until == 0 {
			continue
		}
		if now.After(until) || f.head.Health(core.NodeID(k)) != core.HealthUp {
			f.warming[k] = 0
			continue
		}
		f.warm(now, core.NodeID(k))
	}
	if now.Sub(f.lastEval) < f.Config().Interval {
		return Hold
	}
	f.lastEval = now
	switch f.pol.Evaluate(now, f.signals(depth)) {
	case ScaleUp:
		return ScaleUp
	case Drain:
		if f.begin(now) {
			return Drain
		}
	}
	return Hold
}

// Activated opens node k's bring-up window: it has just joined the fleet
// cold, so its first warm goes out now and one more each Tick until the
// Warmup deadline or until it stops being Up.
func (f *Fleet) Activated(now units.Time, k core.NodeID) {
	if f.pref == nil {
		return
	}
	f.warming[k] = now.Add(f.Config().Warmup)
	f.warm(now, k)
}

// warm offers node k the predictor's hottest chunk it does not hold.
func (f *Fleet) warm(now units.Time, k core.NodeID) {
	if d, ok := f.pref.Warmup(now, k, f.head); ok {
		f.plane.Warm(d)
		f.out.BringupWarms++
		f.out.WarmBytes += d.Size
	}
}

// signals samples the policy's inputs from head health, the head's caches
// and the QoS controller: Up and Suspect nodes are active, and the caches
// of the active nodes make the utilization.
func (f *Fleet) signals(depth int) Signals {
	s := Signals{QueueDepth: depth, MinHeadroom: 1}
	var used, quota units.Bytes
	for k := range f.head.Nodes() {
		switch f.head.Health(core.NodeID(k)) {
		case core.HealthUp, core.HealthSuspect:
			s.ActiveNodes++
			used += f.head.Caches[k].Used()
			quota += f.head.Caches[k].Quota()
		case core.HealthDraining:
			s.DrainingNodes++
		}
	}
	if quota > 0 {
		s.CacheUtilization = float64(used) / float64(quota)
	}
	if f.qos != nil {
		s.LadderLevel = int(f.qos.Level())
		slo := f.qos.SLO()
		for _, tp := range f.qos.TenantP95s() {
			s.MinHeadroom = min(s.MinHeadroom, Headroom(tp.P95, slo))
		}
	}
	return s
}

// begin drains the Up node PickVictim prefers: the plane takes its queued
// work back, any warm it was running is abandoned, and the chunks only it
// holds start evacuating. It reports whether a drain began.
func (f *Fleet) begin(now units.Time) bool {
	f.cands = f.cands[:0]
	for k := range f.head.Nodes() {
		id := core.NodeID(k)
		if f.head.Health(id) != core.HealthUp {
			continue
		}
		f.cands = append(f.cands, Candidate{ID: id, Busy: f.plane.Busy(id),
			HomePressure: f.head.Pressure(id), CacheBytes: f.head.Caches[k].Used()})
	}
	victim, ok := PickVictim(f.cands)
	if !ok || !f.head.MarkDraining(victim) {
		return false
	}
	f.draining, f.drainStart = victim, now
	f.out.Drains++
	if f.pref != nil {
		f.pref.FailNode(victim) // its cache has no future
	}
	f.out.TasksMigrated += int64(f.plane.Drain(victim))
	f.pending = f.head.DrainOrphans(victim)
	f.evacuate(now)
	return true
}

// evacuate drops the pending orphans a survivor now holds and offers the
// rest to the prefetch governor.
func (f *Fleet) evacuate(now units.Time) {
	live := f.pending[:0]
	for _, c := range f.pending {
		if f.head.ReplicaCount(c) == 0 {
			live = append(live, c)
		}
	}
	f.pending = live
	if f.pref == nil || len(f.pending) == 0 {
		return
	}
	for _, d := range f.pref.Evacuate(now, f.pending, f.head, f.draining) {
		f.plane.Warm(d)
		f.out.OrphanWarms++
		f.out.WarmBytes += d.Size
	}
}

// advance retires the victim once it is idle and its working set is safe,
// or once MaxDrain has passed. A victim that left Draining by another way
// crashed: the crash path owns it, and the drain is abandoned uncounted.
func (f *Fleet) advance(now units.Time) {
	if f.head.Health(f.draining) != core.HealthDraining {
		f.draining, f.pending = -1, nil
		return
	}
	f.evacuate(now)
	safe := !f.plane.Busy(f.draining) && len(f.pending) == 0
	if !safe && now.Sub(f.drainStart) < f.Config().MaxDrain {
		return
	}
	victim := f.draining
	rep, orphans := f.head.DemoteHomes(victim)
	f.out.DrainRehomed += int64(rep.Rehomed)
	f.out.DrainOrphaned += int64(len(orphans))
	f.head.CompleteDrain(victim)
	f.draining, f.pending = -1, nil
	f.out.TasksMigrated += int64(f.plane.Retire(victim))
	f.out.DrainsCompleted++
	f.out.DrainTime.Add(now.Sub(f.drainStart))
}
