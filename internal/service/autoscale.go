package service

import (
	"vizsched/internal/autoscale"
	"vizsched/internal/core"
	"vizsched/internal/journal"
	"vizsched/internal/transport"
)

// This file wires the elastic autoscaler (§5.12) into the live head. The
// shared autoscale.Fleet makes every drain and bring-up decision on the
// dispatcher's health-check tick; the head supplies its hooks and scale-up:
//
//	scale-up: the head cannot provision hardware, so the decision raises the
//	          desired-workers gauge (exported on /metrics) and bring-up rides
//	          the existing rejoin path — an operator or an external
//	          provisioner attaches a worker, and the dispatcher puts it to
//	          work the moment the hello lands.
//	drain:    the victim stops taking work, its dispatched batch tasks
//	          migrate back to the queue (a duplicate completion from the
//	          victim is absorbed by the first-report-wins dedup the deadline
//	          machinery uses), and when it retires the head journals the
//	          re-home, hands back whatever it still owes, and sends the worker
//	          a clean Shutdown. Nothing touches workersDown, the MTTR
//	          accumulators, or the re-seed counters: a drain is never
//	          accounted as a crash.
//
// The machine and its account are dispatcher-owned; Stats reads the copy
// publish leaves in the stats mirror.

// liveScaler is the live head's side of the elastic fleet. It implements
// autoscale.Plane.
type liveScaler struct {
	l     *headLoop
	fleet *autoscale.Fleet
	// desired is the fleet size the policy wants; exported as a gauge so an
	// external provisioner knows when to attach (or stop re-attaching)
	// workers.
	desired int
}

// newLiveScaler builds the machine over the head's tables and seeds the
// desired-workers gauge with the registered fleet.
func newLiveScaler(l *headLoop) *liveScaler {
	h := l.h
	s := &liveScaler{l: l, desired: len(h.workers)}
	s.fleet = autoscale.NewFleet(h.Autoscale, h.state, h.prefc, h.qosc, s)
	h.stats.desiredWorkers.Store(int64(s.desired))
	return s
}

// tick runs the machine on a dispatcher health check with depth jobs
// waiting, carries out a scale-up, and schedules the tasks a drain handed
// back.
func (s *liveScaler) tick(depth int) {
	h := s.l.h
	moved := s.fleet.Outcome().TasksMigrated
	if s.fleet.Tick(h.now(), depth) == autoscale.ScaleUp && s.desired < s.fleet.Config().MaxNodes {
		s.desired++
		h.stats.desiredWorkers.Store(int64(s.desired))
		h.Logf("head: autoscale wants %d workers; bring-up rides the rejoin path", s.desired)
	}
	s.publish()
	if s.fleet.Outcome().TasksMigrated > moved {
		s.l.schedule()
	}
}

// noteBringup opens the bring-up window of a worker that just came back
// from Down through the rejoin path.
func (s *liveScaler) noteBringup(k core.NodeID) {
	s.fleet.Activated(s.l.h.now(), k)
	s.publish()
}

// publish copies the machine's account into the stats mirror.
func (s *liveScaler) publish() {
	st := &s.l.h.stats
	st.scaledMu.Lock()
	st.scaled = *s.fleet.Outcome()
	st.scaledMu.Unlock()
}

// Busy implements autoscale.Plane: node k owes the head a fragment.
func (s *liveScaler) Busy(k core.NodeID) bool { return len(s.l.outstanding(k)) > 0 }

// Drain implements autoscale.Plane: node k's dispatched batch tasks go back
// to the queue for idle survivors. Its interactive tasks are left to finish
// — they are latency-critical and nearly done; Retire hands back any it
// still owes.
func (s *liveScaler) Drain(k core.NodeID) int {
	h := s.l.h
	h.healthView[k].Store(int32(core.HealthDraining))
	moved := 0
	for _, t := range s.l.outstanding(k) {
		if t.lj.job.Class == core.Batch {
			s.l.requeue(t.lj, t.i)
			moved++
		}
	}
	h.Logf("head: draining node %d (%d batch tasks migrated)", k, moved)
	return moved
}

// Warm implements autoscale.Plane: the directive goes to its worker.
func (s *liveScaler) Warm(d core.PrefetchDirective) {
	s.l.sendPrefetches([]core.PrefetchDirective{d})
}

// Retire implements autoscale.Plane: the head journals the re-home, hands
// back every task node k still owes, and retires the worker with a clean
// Shutdown — its serve loop returns nil and its reconnect loop stops
// redialing, and the eventual connection error is swallowed by nodeDown's
// already-down guard. downAt stays zero, so a later rejoin of the slot
// contributes no MTTR sample.
func (s *liveScaler) Retire(k core.NodeID) int {
	h := s.l.h
	// One KindRehome record: a standby's replay runs MarkFailed, which
	// re-homes to the same survivors DemoteHomes picked, so the recovered
	// tables converge without a drain-specific record kind.
	h.journalRec(journal.KindRehome, 0, -1, k, h.now(), nil)
	h.healthView[k].Store(int32(core.HealthDown))
	owed := s.l.outstanding(k)
	for _, t := range owed {
		s.l.requeue(t.lj, t.i)
	}
	_ = h.senders[k].Send(transport.Message{Kind: transport.KindShutdown})
	h.senders[k].Close()
	if s.desired > s.fleet.Config().MinNodes {
		s.desired--
	}
	h.stats.desiredWorkers.Store(int64(s.desired))
	h.Logf("head: node %d drained (%d owed tasks handed back)", k, len(owed))
	return len(owed)
}
