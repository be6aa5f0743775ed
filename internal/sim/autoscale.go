package sim

import (
	"slices"

	"vizsched/internal/autoscale"
	"vizsched/internal/core"
	"vizsched/internal/des"
	"vizsched/internal/trace"
	"vizsched/internal/units"
)

// This file wires the elastic autoscaler (§5.12) into the DES engine. The
// shared autoscale.Fleet makes every drain and bring-up decision; the engine
// supplies its hooks and scale-up. The fleet is provisioned at Config.Nodes,
// and the slots beyond Config.Autoscale.Initial start *parked*: cold,
// HealthDown, never counted as crashed. A scale-up returns the lowest-ID
// parked slot to service through the MarkRepaired path a rejoining worker
// takes; a drained node is parked again. Everything runs on the virtual
// clock off a des ticker, so runs stay bit-deterministic at any experiment
// -parallel width.

// autoScaler is the engine's side of the elastic fleet: the shared machine,
// the parked slots and the node-seconds bill. It implements autoscale.Plane.
type autoScaler struct {
	e     *Engine
	fleet *autoscale.Fleet

	// parked marks slots held out of the fleet; only these may be activated,
	// so chaos-crashed nodes never get "scaled up".
	parked []bool
	// active counts the unparked slots — a draining node until its drain
	// completes — the capacity the node-seconds bill runs on.
	active      int
	lastAccount units.Time // node-seconds integral frontier
}

// initAutoscale builds the scaler and parks the slots beyond the fitted
// Initial. Called from New after preload, so parked slots are rebuilt cold.
func (e *Engine) initAutoscale() {
	s := &autoScaler{e: e, parked: make([]bool, e.cfg.Nodes)}
	s.fleet = autoscale.NewFleet(e.cfg.Autoscale, e.head, e.pref, e.qosc, s)
	s.active = s.fleet.Config().Initial
	e.scaler = s
	for k := s.active; k < e.cfg.Nodes; k++ {
		e.head.CompleteDrain(core.NodeID(k))
		s.park(core.NodeID(k))
	}
}

// park holds slot k out of the fleet: a fresh cold node object that refuses
// work, while the head has it HealthDown with no Recovery accounting — the
// non-crash exit CompleteDrain provides.
func (s *autoScaler) park(k core.NodeID) {
	n := s.e.newNode(k)
	n.failed = true
	s.e.nodes[k] = n
	s.parked[k] = true
}

// bill advances the node-seconds integral to now, then moves the active
// count by delta and tracks its extrema.
func (s *autoScaler) bill(now units.Time, delta int) {
	out := s.fleet.Outcome()
	if now.After(s.lastAccount) {
		out.NodeSeconds += float64(s.active) * now.Sub(s.lastAccount).Seconds()
		s.lastAccount = now
	}
	s.active += delta
	out.MinActive = min(out.MinActive, s.active)
	out.MaxActive = max(out.MaxActive, s.active)
}

// autoscaleTick is the control loop's ticker event.
func (e *Engine) autoscaleTick() {
	if e.headDown {
		return // no control plane, no fleet decisions
	}
	now := e.sim.Now()
	switch e.scaler.fleet.Tick(now, e.backlog.Len()) {
	case autoscale.ScaleUp:
		e.activateOne(now)
	case autoscale.Drain:
		if e.backlog.Len() > 0 && e.cfg.Scheduler.Trigger() == core.OnArrival {
			e.invokeScheduler()
		}
	}
}

// activateOne returns the lowest-ID parked slot to service, cold, through
// the same repair path a rejoining worker takes, and opens its bring-up
// window.
func (e *Engine) activateOne(now units.Time) {
	s := e.scaler
	k := slices.Index(s.parked, true)
	if k < 0 {
		return
	}
	id := core.NodeID(k)
	s.parked[k] = false
	e.nodes[k].failed = false
	e.head.MarkRepaired(id, now)
	s.bill(now, +1)
	s.fleet.Outcome().ScaleUps++
	e.emit(trace.Event{Kind: trace.NodeRepair, Node: id})
	s.fleet.Activated(now, id)
	if e.cfg.Scheduler.Trigger() == core.OnArrival {
		e.invokeScheduler()
	}
}

// Busy implements autoscale.Plane: node k is executing or loading.
func (s *autoScaler) Busy(k core.NodeID) bool {
	n := s.e.nodes[k]
	return n.executing() || n.loadActive
}

// Drain implements autoscale.Plane: node k takes no more work, abandons its
// background warm, and its queued, not-yet-running tasks migrate back to the
// head queue — the work-stealing half of the drain, never counted as crash
// redispatch. Requeue order is the node's own FIFO order (then waiters in
// chunk order, then warm waiters), so each tenant's jobs re-enter the window
// in the order DRR released them. An in-flight demand load completes
// harmlessly: its waiters are gone, so it inserts the chunk and starts
// nothing.
func (s *autoScaler) Drain(k core.NodeID) int {
	e := s.e
	n := e.nodes[k]
	n.draining = true
	e.emit(trace.Event{Kind: trace.NodeFail, Node: k})
	n.pfTimer.Cancel()
	n.pfTimer = des.Timer{}
	n.pfActive = false
	moved := 0
	migrate := func(t *core.Task) {
		delete(n.accessed, t)
		delete(e.pinned, t)
		e.backlog.Requeue(t)
		moved++
	}
	for t, ok := n.ready.Pop(); ok; t, ok = n.ready.Pop() {
		migrate(t)
	}
	for _, c := range n.waitingChunks() {
		for _, t := range n.waiters[c] {
			migrate(t)
		}
		delete(n.waiters, c)
	}
	for _, t := range n.pfWaiters {
		migrate(t)
	}
	n.pfWaiters = nil
	return moved
}

// Warm implements autoscale.Plane: the directive starts on its node.
func (s *autoScaler) Warm(d core.PrefetchDirective) { s.e.startPrefetch(d) }

// Retire implements autoscale.Plane: the slot is parked and leaves the
// bill. Whatever it still runs at MaxDrain finishes on the old node object,
// so nothing is handed back.
func (s *autoScaler) Retire(k core.NodeID) int {
	s.park(k)
	s.bill(s.e.sim.Now(), -1)
	return 0
}

// finishAutoscale closes the bill at the horizon and attaches the outcome
// to the report.
func (e *Engine) finishAutoscale(horizon units.Time) {
	e.scaler.bill(horizon, 0)
	e.report.Autoscale = e.scaler.fleet.Outcome()
}
