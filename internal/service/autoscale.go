package service

import (
	"slices"
	"time"

	"vizsched/internal/autoscale"
	"vizsched/internal/core"
	"vizsched/internal/journal"
	"vizsched/internal/transport"
	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// This file wires the elastic autoscaler (§5.12) into the live head. The
// same pure policy the simulator runs is evaluated on the dispatcher's
// health-check tick; executing its decisions maps onto the service's
// machinery:
//
//	scale-up: the head cannot provision hardware, so the decision raises the
//	          desired-workers gauge (exported on /metrics) and bring-up rides
//	          the existing rejoin path — an operator or an external
//	          provisioner attaches a worker, and the dispatcher puts it to
//	          work the moment the hello lands.
//	drain:    the victim stops taking work (HealthDraining: schedulers only
//	          assign to Alive nodes), its dispatched-but-incomplete batch
//	          tasks migrate back to the queue (counted as migrations, never
//	          as crash redispatch — a duplicate completion from the victim
//	          is absorbed by the same first-report-wins dedup the deadline
//	          machinery uses), its would-be-orphan chunks are pre-warmed
//	          onto survivors through the prefetch governor, and only when
//	          its in-flight work has finished and the warms have landed does
//	          the head demote its homes, journal the re-home, and send the
//	          worker a clean Shutdown. Nothing touches workersDown, the
//	          MTTR accumulators, or the re-seed counters: a drain is never
//	          accounted as a crash.
//
// All liveScaler state is dispatcher-owned; only the stats mirror is shared.

// liveScaler is the dispatcher-side drain/scale machinery around the policy.
type liveScaler struct {
	l   *headLoop
	pol *autoscale.Policy

	lastEval units.Time

	// draining is the node mid-drain (-1 when none).
	draining     core.NodeID
	drainStart   time.Time
	drainPending []volume.ChunkID // orphans awaiting evacuation warms

	// warming holds the bring-up pre-warm deadline for each worker that
	// recently (re)joined: until it passes, every control tick offers the
	// predictor's hottest chunks to the governor for copying onto the new
	// node, so bring-up joins the fleet warm.
	warming map[core.NodeID]time.Time

	// desired is the fleet size the policy wants; exported as a gauge so an
	// external provisioner knows when to attach (or stop re-attaching)
	// workers.
	desired int
}

// newLiveScaler normalizes the config against the registered fleet and
// seeds the desired-workers gauge.
func newLiveScaler(l *headLoop) *liveScaler {
	h := l.h
	cfg := *h.Autoscale
	n := len(h.workers)
	if cfg.MaxNodes <= 0 || cfg.MaxNodes > n {
		cfg.MaxNodes = n
	}
	if cfg.MinNodes > cfg.MaxNodes {
		cfg.MinNodes = cfg.MaxNodes
	}
	s := &liveScaler{l: l, pol: autoscale.NewPolicy(&cfg), draining: -1, desired: n,
		warming: make(map[core.NodeID]time.Time)}
	h.stats.desiredWorkers.Store(int64(n))
	return s
}

// tick runs once per dispatcher health-check: advance any drain in flight,
// and — at the policy's own interval — sample the signals and act.
func (s *liveScaler) tick() {
	h := s.l.h
	if s.draining >= 0 {
		s.advance()
	}
	s.pumpWarmup()
	now := h.now()
	if now.Sub(s.lastEval) < s.pol.Config().Interval {
		return
	}
	s.lastEval = now
	switch s.pol.Evaluate(now, s.signals()) {
	case autoscale.ScaleUp:
		if s.desired < s.pol.Config().MaxNodes {
			s.desired++
			h.stats.desiredWorkers.Store(int64(s.desired))
			h.Logf("head: autoscale wants %d workers; bring-up rides the rejoin path", s.desired)
		}
	case autoscale.Drain:
		s.begin()
	}
}

// noteBringup starts the bring-up pre-warm window for a worker that just
// (re)joined through the rejoin path — the live half of pre-warmed node
// bring-up. Dispatcher goroutine only.
func (s *liveScaler) noteBringup(k core.NodeID) {
	s.warming[k] = s.l.h.wall().Add(s.pol.Config().Warmup.Std())
}

// pumpWarmup offers one governed bring-up warm per warming worker per tick,
// copying the predictor's hottest chunks onto nodes inside their warm-up
// window so they take interactive work warm instead of paying demand misses.
func (s *liveScaler) pumpWarmup() {
	h := s.l.h
	if h.prefc == nil || len(s.warming) == 0 {
		return
	}
	nodes := make([]core.NodeID, 0, len(s.warming))
	for k := range s.warming {
		nodes = append(nodes, k)
	}
	slices.Sort(nodes)
	now := h.now()
	for _, k := range nodes {
		if h.wall().After(s.warming[k]) || h.state.Health(k) != core.HealthUp {
			delete(s.warming, k)
			continue
		}
		if d, ok := h.prefc.Warmup(now, k, h.state); ok {
			h.stats.bringupWarms.Add(1)
			s.l.sendPrefetches([]core.PrefetchDirective{d})
		}
	}
}

// signals samples the policy inputs from dispatcher-owned tables.
func (s *liveScaler) signals() autoscale.Signals {
	h := s.l.h
	sig := autoscale.Signals{QueueDepth: len(s.l.queue), MinHeadroom: 1}
	for k := range h.healthView {
		switch h.state.Health(core.NodeID(k)) {
		case core.HealthUp, core.HealthSuspect:
			sig.ActiveNodes++
		case core.HealthDraining:
			sig.DrainingNodes++
		}
	}
	if h.qosc != nil {
		sig.QueueDepth += h.qosc.QueueLen()
		sig.BatchBacklog = h.qosc.BatchBacklog()
		sig.LadderLevel = int(h.qosc.Level())
		slo := h.qosc.SLO()
		for _, tp := range h.qosc.TenantP95s() {
			if hr := autoscale.Headroom(tp.P95, slo); hr < sig.MinHeadroom {
				sig.MinHeadroom = hr
			}
		}
	}
	var used, quota units.Bytes
	for k := range h.healthView {
		if h.state.Health(core.NodeID(k)) == core.HealthUp {
			used += h.state.Caches[k].Used()
			quota += h.state.Caches[k].Quota()
		}
	}
	if quota > 0 {
		sig.CacheUtilization = float64(used) / float64(quota)
	}
	return sig
}

// begin picks a victim and starts its graceful exit.
func (s *liveScaler) begin() {
	h := s.l.h
	var cands []autoscale.Candidate
	for k := range h.healthView {
		node := core.NodeID(k)
		if h.state.Health(node) != core.HealthUp {
			continue
		}
		cands = append(cands, autoscale.Candidate{
			ID:           node,
			Busy:         len(s.l.outstanding(node)) > 0,
			HomePressure: h.state.Pressure(node),
			CacheBytes:   h.state.Caches[k].Used(),
		})
	}
	victim, ok := autoscale.PickVictim(cands)
	if !ok || !h.state.MarkDraining(victim) {
		return
	}
	h.healthView[victim].Store(int32(core.HealthDraining))
	s.draining = victim
	s.drainStart = h.wall()
	h.stats.drains.Add(1)
	if h.prefc != nil {
		// Abandon any warm the victim had in flight; its cache has no future.
		h.prefc.FailNode(victim)
	}
	// Work stealing: the victim's dispatched-but-incomplete batch tasks
	// migrate back to the queue for idle survivors. Interactive tasks are
	// left to finish — they are latency-critical and nearly done. A late
	// completion from the victim is absorbed by the first-report-wins dedup.
	migrated := 0
	for _, t := range s.l.outstanding(victim) {
		if t.lj.job.Class == core.Batch {
			s.l.requeue(t.lj, t.i, &h.stats.tasksMigrated)
			migrated++
		}
	}
	s.drainPending = h.state.DrainOrphans(victim)
	h.Logf("head: draining node %d (migrated %d batch tasks, %d orphan chunks to evacuate)",
		victim, migrated, len(s.drainPending))
	s.pump()
	if migrated > 0 {
		s.l.schedule()
	}
}

// pump drops pending orphans that have landed on a survivor and offers the
// rest to the prefetch governor for evacuation warming.
func (s *liveScaler) pump() {
	if len(s.drainPending) == 0 {
		return
	}
	h := s.l.h
	live := s.drainPending[:0]
	for _, c := range s.drainPending {
		if h.state.ReplicaCount(c) == 0 {
			live = append(live, c)
		}
	}
	s.drainPending = live
	if h.prefc == nil || len(s.drainPending) == 0 {
		return
	}
	ds := h.prefc.Evacuate(h.now(), s.drainPending, h.state, s.draining)
	h.stats.orphanWarms.Add(int64(len(ds)))
	s.l.sendPrefetches(ds)
}

// advance progresses the drain in flight and completes it once the victim
// is idle and its working set is safe (or MaxDrain expired).
func (s *liveScaler) advance() {
	h := s.l.h
	if h.state.Health(s.draining) != core.HealthDraining {
		// The victim crashed (or went silent) mid-drain: nodeDown's crash
		// path has taken over — MarkFailed, redispatch, Recovery accounting.
		s.draining = -1
		s.drainPending = nil
		return
	}
	s.pump()
	idle := len(s.l.outstanding(s.draining)) == 0
	expired := h.wall().Sub(s.drainStart) >= s.pol.Config().MaxDrain.Std()
	if (idle && len(s.drainPending) == 0) || expired {
		s.finish()
	}
}

// finish demotes the victim's home sets, journals the re-home, and retires
// the worker with a clean Shutdown — the voluntary exit that never touches
// workersDown, the MTTR accumulators, or the re-seed counters.
func (s *liveScaler) finish() {
	h := s.l.h
	victim := s.draining
	now := h.now()
	// One KindRehome record: a standby's replay runs MarkFailed, which
	// re-homes to the same survivors DemoteHomes picked, so the recovered
	// tables converge without a drain-specific record kind.
	h.journalRec(journal.KindRehome, 0, -1, victim, now, nil)
	var rep core.RehomeReport
	var orphans []volume.ChunkID
	h.trackWaste(func() { rep, orphans = h.state.DemoteHomes(victim) })
	h.stats.drainRehomed.Add(int64(rep.Rehomed))
	h.stats.drainOrphaned.Add(int64(len(orphans)))
	h.state.CompleteDrain(victim)
	h.healthView[victim].Store(int32(core.HealthDown))
	h.shard.dropNode(victim)
	// A clean Shutdown: the worker's serve loop returns nil and its
	// reconnect loop stops redialing. The eventual connection error event is
	// swallowed by nodeDown's already-down guard. downAt stays zero, so a
	// later scale-up rejoin of this slot contributes no MTTR sample.
	_ = h.senders[victim].Send(transport.Message{Kind: transport.KindShutdown})
	h.senders[victim].Close()
	s.draining = -1
	s.drainPending = nil
	if s.desired > s.pol.Config().MinNodes {
		s.desired--
	}
	h.stats.desiredWorkers.Store(int64(s.desired))
	h.stats.drainsCompleted.Add(1)
	h.Logf("head: node %d drained in %v (%d chunks re-homed, %d orphaned)",
		victim, h.wall().Sub(s.drainStart).Round(time.Millisecond), rep.Rehomed, len(orphans))
}
