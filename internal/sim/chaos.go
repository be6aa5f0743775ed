package sim

import (
	"fmt"
	"math/rand"

	"vizsched/internal/core"
	"vizsched/internal/des"
	"vizsched/internal/trace"
	"vizsched/internal/units"
)

// FaultKind selects what a Failure does to its node. The crash model is the
// paper's §VI-D experiment; the other kinds extend it into a small chaos
// suite covering the failure shapes a GPU cluster actually exhibits.
type FaultKind int

const (
	// FaultCrash kills the node: queued/loading/running work returns to the
	// head queue and the node's caches are lost. RepairAt (if set) brings it
	// back cold.
	FaultCrash FaultKind = iota
	// FaultSlowDisk multiplies the node's disk I/O times by Factor between
	// At and RepairAt — a degraded-but-alive node that drags every miss.
	FaultSlowDisk
	// FaultStall freezes the node between At and RepairAt: nothing starts
	// or completes, but queues and caches survive and work resumes where it
	// stopped — a GC pause, driver hiccup, or network partition that heals.
	FaultStall
	// FaultFlap runs Count seeded crash/repair cycles spaced Period apart —
	// the pathological reconnect loop that stresses rejoin handling.
	FaultFlap
	// FaultHeadCrash takes the head's control plane down between At and
	// RepairAt (§5.10): no admissions, no scheduling, no completion
	// processing. Nodes keep draining already-dispatched work and retain
	// their completion reports; at repair the recovered standby reconciles
	// the retained reports and admits the deferred arrivals — committed
	// work is never re-rendered. The failure's Node field is ignored.
	FaultHeadCrash
	// FaultPartition isolates a live node from the head between At and
	// RepairAt — the DES mirror of the transport fault injector's
	// Partition()/Heal(). The head demotes the node to suspect (no new
	// work); the node keeps executing its queue and retains completion
	// reports, reconciled at heal with its predicted caches intact.
	FaultPartition
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultSlowDisk:
		return "slowdisk"
	case FaultStall:
		return "stall"
	case FaultFlap:
		return "flap"
	case FaultHeadCrash:
		return "headcrash"
	case FaultPartition:
		return "partition"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// interval returns a Failure's [At, RepairAt] span, defaulting the end for
// interval faults left open.
func (f Failure) interval() (units.Time, units.Time) {
	end := f.RepairAt
	if end <= f.At {
		end = f.At.Add(10 * units.Second)
	}
	return f.At, end
}

// inject schedules one Failure's events onto the simulation clock.
func (e *Engine) inject(f Failure) {
	if f.Kind != FaultHeadCrash && (int(f.Node) < 0 || int(f.Node) >= e.cfg.Nodes) {
		panic(fmt.Sprintf("sim: failure targets unknown node %d", f.Node))
	}
	switch f.Kind {
	case FaultCrash:
		e.sim.At(f.At, func(s *des.Simulator) {
			e.report.Recovery.FaultInjected(s.Now())
			e.fail(f.Node)
		})
		if f.RepairAt > f.At {
			e.sim.At(f.RepairAt, func(s *des.Simulator) { e.repair(f.Node) })
		}

	case FaultSlowDisk:
		factor := f.Factor
		if factor <= 1 {
			factor = 4
		}
		from, to := f.interval()
		e.sim.During(from, to,
			func(s *des.Simulator) {
				e.report.Recovery.FaultInjected(s.Now())
				e.nodes[f.Node].ioScale = factor
			},
			func(s *des.Simulator) {
				// A crash inside the interval swaps in a fresh (healthy)
				// node; resetting it to 1 is a harmless no-op.
				e.nodes[f.Node].ioScale = 1
			})

	case FaultStall:
		from, to := f.interval()
		var stalled *node
		e.sim.During(from, to,
			func(s *des.Simulator) {
				e.report.Recovery.FaultInjected(s.Now())
				stalled = e.stallNode(f.Node)
			},
			func(s *des.Simulator) {
				if stalled != nil {
					e.resumeNode(f.Node, stalled)
				}
			})

	case FaultFlap:
		period := f.Period
		if period <= 0 {
			period = 5 * units.Second
		}
		count := f.Count
		if count <= 0 {
			count = 3
		}
		// The schedule is drawn from the failure's own seed so a flap is
		// reproducible independent of the engine's jitter stream.
		rng := rand.New(rand.NewSource(f.Seed ^ (int64(f.Node)+1)*0x9e3779b9))
		at := f.At
		for i := 0; i < count; i++ {
			down := period / 2
			// Jitter the down time ±25% so cycles don't phase-lock with the
			// scheduler period.
			down += units.Duration(float64(period) * 0.125 * (2*rng.Float64() - 1))
			crashAt, repairAt := at, at.Add(down)
			e.sim.At(crashAt, func(s *des.Simulator) {
				e.report.Recovery.FaultInjected(s.Now())
				e.fail(f.Node)
			})
			e.sim.At(repairAt, func(s *des.Simulator) { e.repair(f.Node) })
			at = at.Add(period)
		}

	case FaultHeadCrash:
		from, to := f.interval()
		e.sim.During(from, to,
			func(s *des.Simulator) {
				e.report.Recovery.FaultInjected(s.Now())
				e.headFail()
			},
			func(s *des.Simulator) { e.headRepair() })

	case FaultPartition:
		from, to := f.interval()
		e.sim.During(from, to,
			func(s *des.Simulator) {
				e.report.Recovery.FaultInjected(s.Now())
				e.partition(f.Node)
			},
			func(s *des.Simulator) { e.heal(f.Node) })

	default:
		panic(fmt.Sprintf("sim: unknown fault kind %v", f.Kind))
	}
}

// stallNode freezes a live node. Running tasks suspend through their share
// accounts: re-pricing with the node stalled zeroes every slot's rate
// (crediting progress up to now first). An in-flight load is suspended with
// its remaining time recorded. Returns nil when the node is already down or
// stalled.
func (e *Engine) stallNode(k core.NodeID) *node {
	n := e.nodes[k]
	if n.failed || n.stalled {
		return nil
	}
	n.stalled = true
	now := e.sim.Now()
	e.reprice(n)
	if n.loadActive {
		n.loadTimer.Cancel()
		n.loadTimer = des.Timer{}
		n.loadRemaining = n.loadEnd.Sub(now)
		if n.loadRemaining < 0 {
			n.loadRemaining = 0
		}
	}
	if e.pref != nil && n.pfActive {
		// Warms are disposable: a stall cancels the in-flight warm rather
		// than suspending it. Demand tasks that had absorbed it fall back to
		// an ordinary load, restarted after the stall.
		n.pfTimer.Cancel()
		n.pfTimer = des.Timer{}
		n.pfActive = false
		e.pref.Cancel(n.id, n.pfChunk)
		e.emit(trace.Event{Kind: trace.PrefetchCancel, Node: n.id, Chunk: n.pfChunk})
		if len(n.pfWaiters) > 0 {
			n.waiters[n.pfChunk] = append(n.waiters[n.pfChunk], n.pfWaiters...)
			n.loadq.Push(n.pfChunk)
			n.pfWaiters = nil
		}
	}
	return n
}

// resumeNode unfreezes a stalled node: start fills the slots tasks queued
// during the stall may take and re-prices, which restores every suspended
// slot's rate and re-arms its completion from where it stopped; a suspended
// load re-arms for its remaining time. If the node crashed during the stall
// the engine swapped in a fresh node and this is a no-op.
func (e *Engine) resumeNode(k core.NodeID, n *node) {
	if e.nodes[k] != n || !n.stalled {
		return
	}
	n.stalled = false
	e.start(n)
	if n.loadActive {
		n.loadEnd = e.sim.Now().Add(n.loadRemaining)
		n.loadTimer = e.sim.After(n.loadRemaining, n.loadFn)
	}
	e.kickLoad(n)
}
