package sim

import (
	"vizsched/internal/autoscale"
	"vizsched/internal/core"
	"vizsched/internal/des"
	"vizsched/internal/metrics"
	"vizsched/internal/trace"
	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// This file wires the elastic autoscaler (§5.12) into the DES engine. The
// fleet is provisioned at Config.Nodes; the scaler holds some of those
// slots *inactive* (cold, HealthDown, never counted as crashed) and moves
// nodes between active and inactive on the policy's decisions:
//
//   scale-up:  the lowest-ID inactive slot returns to service cold through
//              the same MarkRepaired path a rejoining worker uses.
//   drain:     the victim stops taking work (HealthDraining), its queued
//              tasks migrate back to the head queue (counted as migrations,
//              never as crash redispatch), its would-be-orphan chunks are
//              pre-warmed onto survivors through the prefetch governor, and
//              only when its running work has finished and the warms have
//              landed does CompleteDrain retire it — so a drain is never
//              accounted as a crash anywhere in Recovery.
//
// Everything runs on the virtual clock off a des ticker, so runs stay
// bit-deterministic at any experiment -parallel width.

// autoScaler is the engine-side drain/activate machinery around the pure
// policy.
type autoScaler struct {
	pol *autoscale.Policy
	out *metrics.AutoscaleOutcome

	// inactive marks slots the scaler holds out of the fleet; only these
	// may be activated, so chaos-crashed nodes never get "scaled up".
	inactive []bool
	// activeCount includes a draining node until its drain completes: the
	// capacity is still held, so the node-hours bill still runs.
	activeCount int

	// draining is the node mid-drain (-1 when none; the policy starts at
	// most one drain at a time).
	draining     core.NodeID
	drainStart   units.Time
	drainPending []volume.ChunkID // orphans awaiting evacuation warms

	// warming[k] is the bring-up pre-warm deadline for a freshly activated
	// slot (zero when not warming): until it passes, each control tick
	// offers the predictor's hottest chunks to the governor for copying
	// onto node k.
	warming []units.Time

	lastAccount units.Time // node-seconds integral frontier
}

// initAutoscale builds the scaler and deactivates the slots beyond
// Config.Autoscale.Initial. Called from New after preload, so inactive
// slots are rebuilt cold — an inactive node holds nothing.
func (e *Engine) initAutoscale() {
	cfg := *e.cfg.Autoscale
	if cfg.MaxNodes <= 0 || cfg.MaxNodes > e.cfg.Nodes {
		cfg.MaxNodes = e.cfg.Nodes
	}
	if cfg.Initial <= 0 || cfg.Initial > cfg.MaxNodes {
		cfg.Initial = cfg.MaxNodes
	}
	if cfg.MinNodes > cfg.Initial {
		cfg.MinNodes = cfg.Initial
	}
	s := &autoScaler{
		pol:      autoscale.NewPolicy(&cfg),
		out:      &metrics.AutoscaleOutcome{MinActive: cfg.Initial, MaxActive: cfg.Initial},
		inactive: make([]bool, e.cfg.Nodes),
		warming:  make([]units.Time, e.cfg.Nodes),
		draining: -1,
	}
	s.activeCount = cfg.Initial
	e.scaler = s
	for k := cfg.Initial; k < e.cfg.Nodes; k++ {
		e.deactivateSlot(core.NodeID(k))
	}
}

// deactivateSlot parks node k outside the fleet: a fresh cold node object
// that refuses work, HealthDown at the head with no re-homing and no
// Recovery accounting — the non-crash exit CompleteDrain provides.
func (e *Engine) deactivateSlot(k core.NodeID) {
	fresh := e.newNode(k)
	fresh.failed = true
	e.nodes[k] = fresh
	e.head.CompleteDrain(k)
	e.scaler.inactive[k] = true
}

// autoscaleAccount advances the node-seconds integral to now.
func (s *autoScaler) account(now units.Time) {
	if now.After(s.lastAccount) {
		s.out.NodeSeconds += float64(s.activeCount) * now.Sub(s.lastAccount).Seconds()
		s.lastAccount = now
	}
}

// setActiveCount moves the integral frontier and tracks the extrema.
func (s *autoScaler) setActiveCount(now units.Time, n int) {
	s.account(now)
	s.activeCount = n
	if n < s.out.MinActive {
		s.out.MinActive = n
	}
	if n > s.out.MaxActive {
		s.out.MaxActive = n
	}
}

// autoscaleTick is the control loop: advance any drain in flight, sample
// the signals, evaluate the policy, and execute its decision.
func (e *Engine) autoscaleTick() {
	if e.headDown {
		return // no control plane, no fleet decisions
	}
	s := e.scaler
	now := e.sim.Now()
	if s.draining >= 0 {
		e.advanceDrain(now)
	}
	e.pumpWarmup(now)
	switch s.pol.Evaluate(now, e.autoscaleSignals()) {
	case autoscale.ScaleUp:
		e.activateOne(now)
	case autoscale.Drain:
		e.beginDrain(now)
	}
}

// pumpWarmup offers bring-up warms for every slot inside its warm-up window:
// one governed directive per node per tick, copying the predictor's hottest
// chunks onto the newly activated node so it takes interactive work warm.
// Slots iterate in ID order, so runs stay bit-deterministic.
func (e *Engine) pumpWarmup(now units.Time) {
	s := e.scaler
	if e.pref == nil {
		return
	}
	for k := range s.warming {
		if s.warming[k] == 0 {
			continue
		}
		n := e.nodes[k]
		if now.After(s.warming[k]) || s.inactive[k] || n.failed || n.draining {
			s.warming[k] = 0
			continue
		}
		if d, ok := e.pref.Warmup(now, core.NodeID(k), e.head); ok {
			e.startPrefetch(d)
			s.out.BringupWarms++
			s.out.WarmBytes += d.Size
		}
	}
}

// autoscaleSignals samples the policy inputs from dispatcher-owned state.
func (e *Engine) autoscaleSignals() autoscale.Signals {
	s := e.scaler
	sig := autoscale.Signals{
		ActiveNodes: s.activeCount,
		QueueDepth:  e.QueueLen(),
		MinHeadroom: 1,
	}
	if s.draining >= 0 {
		sig.ActiveNodes--
		sig.DrainingNodes = 1
	}
	if e.qosc != nil {
		sig.BatchBacklog = e.qosc.BatchBacklog()
		sig.LadderLevel = int(e.qosc.Level())
		slo := e.qosc.SLO()
		for _, tp := range e.qosc.TenantP95s() {
			if h := autoscale.Headroom(tp.P95, slo); h < sig.MinHeadroom {
				sig.MinHeadroom = h
			}
		}
	} else {
		for _, j := range e.queue {
			if j.Class == core.Batch {
				sig.BatchBacklog++
			}
		}
	}
	var used, quota units.Bytes
	for k := 0; k < e.cfg.Nodes; k++ {
		if s.inactive[k] || e.nodes[k].failed {
			continue
		}
		used += e.head.Caches[k].Used()
		quota += e.head.Caches[k].Quota()
	}
	if quota > 0 {
		sig.CacheUtilization = float64(used) / float64(quota)
	}
	return sig
}

// activateOne returns the lowest-ID inactive slot to service, cold,
// through the same repair path a rejoining worker takes.
func (e *Engine) activateOne(now units.Time) {
	s := e.scaler
	for k := 0; k < e.cfg.Nodes; k++ {
		if !s.inactive[k] {
			continue
		}
		s.inactive[k] = false
		e.nodes[k].failed = false
		e.head.MarkRepaired(core.NodeID(k), now)
		s.setActiveCount(now, s.activeCount+1)
		s.out.ScaleUps++
		e.emit(trace.Event{Kind: trace.NodeRepair, Node: core.NodeID(k)})
		// Pre-warmed bring-up: for the warm-up window, each control tick
		// copies the hottest predicted chunks onto the new node through the
		// governor, so it does not pay demand misses on the interactive path.
		if e.pref != nil {
			s.warming[k] = now.Add(s.pol.Config().Warmup)
			if d, ok := e.pref.Warmup(now, core.NodeID(k), e.head); ok {
				e.startPrefetch(d)
				s.out.BringupWarms++
				s.out.WarmBytes += d.Size
			}
		}
		if e.cfg.Scheduler.Trigger() == core.OnArrival {
			e.invokeScheduler()
		}
		return
	}
}

// beginDrain picks a victim and starts its graceful exit.
func (e *Engine) beginDrain(now units.Time) {
	s := e.scaler
	var cands []autoscale.Candidate
	for k := 0; k < e.cfg.Nodes; k++ {
		n := e.nodes[k]
		if s.inactive[k] || n.failed || n.stalled || n.partitioned || n.draining {
			continue
		}
		cands = append(cands, autoscale.Candidate{
			ID:           core.NodeID(k),
			Busy:         n.executing() || n.loadActive,
			HomePressure: e.head.Pressure(core.NodeID(k)),
			CacheBytes:   e.head.Caches[k].Used(),
		})
	}
	victim, ok := autoscale.PickVictim(cands)
	if !ok {
		return
	}
	if !e.head.MarkDraining(victim) {
		return
	}
	n := e.nodes[victim]
	n.draining = true
	s.draining = victim
	s.drainStart = now
	s.out.Drains++
	e.emit(trace.Event{Kind: trace.NodeFail, Node: victim})

	// Abandon any background warm the victim was running; its cache no
	// longer has a future.
	if e.pref != nil {
		n.pfTimer.Cancel()
		n.pfTimer = des.Timer{}
		n.pfActive = false
		e.pref.FailNode(victim)
	}

	// Migrate the victim's queued, not-yet-running work back to the head
	// queue — the work-stealing half of the drain. Requeue order is the
	// node's own FIFO order (then waiters in chunk order, then warm
	// waiters), so each tenant's jobs re-enter the window in the same
	// relative order DRR released them: per-tenant order is preserved, and
	// nothing is ever counted as crash redispatch.
	migrate := func(t *core.Task) {
		t.Assigned = false
		t.PredictedExec = 0
		delete(n.accessed, t)
		delete(e.pinned, t)
		if t.Job.Remaining == 0 {
			e.queue = append(e.queue, t.Job)
		}
		t.Job.Remaining++
		s.out.TasksMigrated++
	}
	for t := n.pop(); t != nil; t = n.pop() {
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
	// The in-flight demand load (if any) completes harmlessly: its waiters
	// are gone, so the completion inserts the chunk and starts nothing.

	// Would-be orphans: chunks only the victim was home to, with no other
	// predicted replica. These get governed pre-warms until they land on
	// survivors (or MaxDrain expires).
	s.drainPending = e.head.DrainOrphans(victim)
	e.pumpEvacuation(now)

	if len(e.queue) > 0 && e.cfg.Scheduler.Trigger() == core.OnArrival {
		e.invokeScheduler()
	}
}

// pumpEvacuation drops pending orphans that have landed on a survivor and
// offers the rest to the governor for warming.
func (e *Engine) pumpEvacuation(now units.Time) {
	s := e.scaler
	if len(s.drainPending) == 0 {
		return
	}
	live := s.drainPending[:0]
	for _, c := range s.drainPending {
		if e.head.ReplicaCount(c) == 0 {
			live = append(live, c)
		}
	}
	s.drainPending = live
	if e.pref == nil || len(s.drainPending) == 0 {
		return
	}
	for _, d := range e.pref.Evacuate(now, s.drainPending, e.head, s.draining) {
		e.startPrefetch(d)
		s.out.OrphanWarms++
		s.out.WarmBytes += d.Size
	}
}

// advanceDrain progresses the drain in flight and completes it once the
// victim is idle and its working set is safe (or MaxDrain expired).
func (e *Engine) advanceDrain(now units.Time) {
	s := e.scaler
	n := e.nodes[s.draining]
	if n.failed {
		// The victim crashed mid-drain: the crash path has taken over
		// (MarkFailed, redispatch, Recovery accounting). Abandon the drain.
		s.draining = -1
		s.drainPending = nil
		return
	}
	e.pumpEvacuation(now)
	idle := !n.executing() && !n.loadActive
	safe := len(s.drainPending) == 0
	expired := now.Sub(s.drainStart) >= s.pol.Config().MaxDrain
	if (idle && safe) || expired {
		e.finishDrain(now)
	}
}

// finishDrain demotes the victim's home sets, retires it to an inactive
// slot, and settles the accounting.
func (e *Engine) finishDrain(now units.Time) {
	s := e.scaler
	victim := s.draining
	rep, orphans := e.head.DemoteHomes(victim)
	s.out.DrainRehomed += int64(rep.Rehomed)
	s.out.DrainOrphaned += int64(len(orphans))
	e.deactivateSlot(victim)
	s.draining = -1
	s.drainPending = nil
	s.out.DrainsCompleted++
	s.out.DrainTime.Add(now.Sub(s.drainStart))
	s.setActiveCount(now, s.activeCount-1)
}

// finishAutoscale closes the run's accounting at the horizon and attaches
// the outcome to the report.
func (e *Engine) finishAutoscale(horizon units.Time) {
	e.scaler.account(horizon)
	e.report.Autoscale = e.scaler.out
}

// Autoscale exposes the run's autoscale outcome so far (nil when disabled)
// for tests.
func (e *Engine) Autoscale() *metrics.AutoscaleOutcome {
	if e.scaler == nil {
		return nil
	}
	return e.scaler.out
}
