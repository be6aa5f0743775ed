package sim

import (
	"fmt"

	"vizsched/internal/core"
	"vizsched/internal/des"
	"vizsched/internal/fracshare"
	"vizsched/internal/metrics"
	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// This file is the engine half of the fractional-capacity subsystem (§5.13).
// With Config.FracShare set, a node's executor changes from "one task
// serially occupies the node" to "up to K demand tasks run concurrently at
// equal shares, plus at most one co-scheduled guest at CoShare while the
// node has no demand work". Every task's progress lives in a fracshare.Slot;
// whenever a node's share layout changes (task start, completion, guest
// arrival, stall, resume) repriceNode folds elapsed progress into each slot
// at its old rate, sets the new rate, and re-arms the completion timer from
// the slot's remaining time. Completion instants therefore depend only on
// the piecewise-constant share function — not on event ordering — which the
// fracshare package's property tests pin down.
//
// Determinism: repriceNode iterates n.frac.order (a slice in task-start
// order), never the n.running map, so the float accumulation order and the
// timer re-arm order are identical on every run.

// fracRuntime is the engine's fractional-capacity state.
type fracRuntime struct {
	slots   int
	gamma   float64
	coShare float64
	// meter integrates each node's aggregate busy share (the per-node
	// utilization gauges); coMeter integrates the guests' share alone (the
	// reclaimed ε-guard idle).
	meter   *fracshare.Meter
	coMeter *fracshare.Meter
	out     metrics.FracShareOutcome
}

// fracNode is one node's slot bookkeeping: the demand tasks in start order
// (the deterministic re-pricing order) and the at-most-one guest.
type fracNode struct {
	order []*core.Task
	co    *core.Task
}

// initFracShare builds the runtime and hands the co-schedule share to
// schedulers that support guest placement.
func (e *Engine) initFracShare() {
	cfg := e.cfg.FracShare
	e.frac = &fracRuntime{
		slots:   cfg.SlotCount(),
		gamma:   cfg.Gamma(),
		coShare: cfg.CoShareValue(),
		meter:   fracshare.NewMeter(e.cfg.Nodes),
		coMeter: fracshare.NewMeter(e.cfg.Nodes),
	}
	e.frac.out.Slots = e.frac.slots
	if cs, ok := e.cfg.Scheduler.(core.CoScheduleSetter); ok {
		cs.SetCoSchedule(e.frac.coShare)
	}
}

// startFrac fills the node's free demand slots from its FIFO and re-prices.
// The frac-mode counterpart of startSerial; also the resume path after a
// stall, since re-pricing an unstalled node restores every suspended rate.
func (e *Engine) startFrac(n *node) {
	if !n.failed && !n.stalled {
		for len(n.frac.order) < e.frac.slots {
			t := n.pop()
			if t == nil {
				break
			}
			e.beginFrac(n, t, false)
		}
	}
	e.repriceNode(n)
}

// enqueueCo places a co-scheduled guest (§5.13). The scheduler contract is
// one guest per node, enforced the same way as placement on a dead node:
// violating it is a policy bug, not a runtime condition.
func (e *Engine) enqueueCo(n *node, t *core.Task) {
	if e.frac == nil {
		panic(fmt.Sprintf("sim: scheduler %s co-scheduled %v without FracShare enabled", e.cfg.Scheduler.Name(), t))
	}
	if n.frac.co != nil {
		panic(fmt.Sprintf("sim: scheduler %s co-scheduled %v onto node %d which already hosts a guest", e.cfg.Scheduler.Name(), t, n.id))
	}
	e.frac.out.CoScheduled++
	e.beginFrac(n, t, true)
	e.repriceNode(n)
}

// beginFrac starts one task in a slot: the cache access, eviction, and cost
// arithmetic are exactly startSerial's (Definition 1 with the load folded
// into the execution), but the completion is a suspended Slot that
// repriceNode will rate and arm.
func (e *Engine) beginFrac(n *node, t *core.Task, co bool) {
	now := e.sim.Now()
	hit := n.mem.Touch(t.Chunk)
	var evicted []volume.ChunkID
	if !hit {
		evicted = n.mem.Insert(t.Chunk, t.Size)
	}
	exec := e.renderCost(n, t)
	if !hit {
		if n.gpu != nil {
			exec += scaleIO(e.cfg.Model.DiskRate.TimeFor(t.Size), n.ioScale)
		} else {
			exec += scaleIO(e.cfg.Model.IOTime(t.Size), n.ioScale)
		}
	}
	exec = e.jitter(exec)
	if _, seen := e.started[t.Job.ID]; !seen {
		e.started[t.Job.ID] = now
	}
	// Exec is full-share work, as in the serial engine — the head's
	// prediction tables stay calibrated in work units; sharing stretches
	// only the completion instant.
	e.report.TaskExecuted(hit, exec, len(evicted))
	if !hit {
		e.report.LoadAdd()
	}
	res := core.TaskResult{
		Task: t, Node: n.id, Hit: hit,
		Exec: exec, Predicted: t.PredictedExec,
		Evicted: evicted,
	}
	ex := e.newExecution(n, res)
	ex.slot, ex.io, ex.co = fracshare.NewSlot(exec, now), !hit, co
	if co {
		n.frac.co = t
	} else {
		n.frac.order = append(n.frac.order, t)
	}
}

// completeFrac fires when a slot's completion timer lands: the slot is
// force-completed (absorbing sub-nanosecond rounding), the frac bookkeeping
// is released, and the standard completion path takes over — which ends by
// calling startFrac, re-pricing the survivors.
func (e *Engine) completeFrac(n *node, res core.TaskResult) {
	t := res.Task
	ex := n.running[t]
	if ex == nil {
		return
	}
	now := e.sim.Now()
	ex.slot.Finish(now)
	if ex.co {
		n.frac.co = nil
		e.head.CoDone(n.id)
		e.frac.out.CoCompleted++
		e.frac.out.CoWork += res.Exec
	} else {
		for i, o := range n.frac.order {
			if o == t {
				n.frac.order = append(n.frac.order[:i], n.frac.order[i+1:]...)
				break
			}
		}
	}
	e.complete(n, res)
}

// repriceNode recomputes every slot's rate on one node and re-arms the
// completion timers. Demand tasks split the node equally (share 1/d);
// the guest runs at CoShare only while the node has no demand task — so a
// demand start preempts it to rate zero in the same event, and a demand
// drain resumes it. I/O-heavy tasks additionally divide by the super-linear
// contention penalty. Iteration order is the start-order slice, then the
// guest — deterministic by construction.
func (e *Engine) repriceNode(n *node) {
	now := e.sim.Now()
	f := n.frac
	down := n.failed || n.stalled
	demand := len(f.order)

	share := 0.0
	if !down && demand > 0 {
		share = 1 / float64(demand)
	}
	coShare := 0.0
	if !down && demand == 0 && f.co != nil {
		coShare = e.frac.coShare
	}

	// Count active I/O-heavy tasks for the contention penalty: every demand
	// load, plus the guest's load while the guest actually runs.
	nIO := 0
	if !down {
		for _, t := range f.order {
			if n.running[t].io {
				nIO++
			}
		}
		if coShare > 0 && n.running[f.co].io {
			nIO++
		}
	}

	for _, t := range f.order {
		ex := n.running[t]
		pen := 1.0
		if ex.io {
			pen = fracshare.IOPenalty(nIO, e.frac.gamma)
		}
		e.setSlotRate(ex, share, pen, now)
	}
	if f.co != nil {
		ex := n.running[f.co]
		was := ex.slot.Suspended()
		pen := 1.0
		if ex.io {
			pen = fracshare.IOPenalty(nIO, e.frac.gamma)
		}
		e.setSlotRate(ex, coShare, pen, now)
		if is := ex.slot.Suspended(); is != was {
			if is {
				e.frac.out.Preemptions++
			} else {
				e.frac.out.Resumes++
			}
		}
	}

	busy := 0.0
	if demand > 0 {
		busy = 1
	} else if coShare > 0 {
		busy = coShare
	}
	e.frac.meter.Set(int(n.id), busy, now)
	e.frac.coMeter.Set(int(n.id), coShare, now)
}

// setSlotRate re-prices one execution's slot and re-arms its completion
// timer from the remaining time at the new rate; a suspended slot keeps no
// timer.
func (e *Engine) setSlotRate(ex *execution, share, penalty float64, now units.Time) {
	ex.slot.SetRate(now, share, penalty)
	ex.timer.Cancel()
	ex.timer = des.Timer{}
	if rem, ok := ex.slot.Remaining(now); ok {
		ex.end = now.Add(rem)
		ex.timer = e.sim.After(rem, ex.fn)
	}
}

// finishFracShare closes the meters at the horizon and publishes the run's
// outcome.
func (e *Engine) finishFracShare(horizon units.Time) {
	e.frac.meter.Finish(horizon)
	e.frac.coMeter.Finish(horizon)
	out := e.frac.out
	out.NodeBusy = make([]units.Duration, e.cfg.Nodes)
	for k := 0; k < e.cfg.Nodes; k++ {
		out.NodeBusy[k] = e.frac.meter.Busy(k)
		out.CoBusyTime += e.frac.coMeter.Busy(k)
	}
	e.report.FracShare = &out
}

// sampleIdleSplit attributes one scheduling cycle's idle-with-pending-batch
// node time to the ε-guard or to ordinary queueing (§5.13). It runs at the
// end of each periodic scheduler invocation, after the scheduler had its
// full say: a node still idle with batch work pending was refused by the
// guard if every sampled pending group would miss on it AND the node served
// interactive work within that group's ε; any other reason (window bound, λ
// bound, a cached group the policy simply didn't reach) is queue idle. Pure
// observation — nothing here schedules events or touches the RNG — so
// enabling it cannot perturb golden outputs. In frac mode a node running
// only a co-scheduled guest still counts as idle, keeping the GuardIdle
// denominator comparable between runs with and without co-scheduling.
func (e *Engine) sampleIdleSplit() {
	if e.cfg.Scheduler.Trigger() != core.Periodic {
		return
	}
	type group struct {
		chunk volume.ChunkID
		size  units.Bytes
		tasks int
	}
	var groups []group
	seen := make(map[volume.ChunkID]bool)
	for _, j := range e.queue {
		if j.Class != core.Batch {
			continue
		}
		for i := range j.Tasks {
			t := &j.Tasks[i]
			if t.Assigned || seen[t.Chunk] {
				continue
			}
			seen[t.Chunk] = true
			groups = append(groups, group{t.Chunk, t.Size, j.GroupSize()})
			if len(groups) >= 8 {
				break
			}
		}
		if len(groups) >= 8 {
			break
		}
	}
	if len(groups) == 0 {
		return
	}
	now := e.sim.Now()
	cycle := e.schedulerCycle()
	for k, n := range e.nodes {
		if n.failed || n.stalled || n.draining || n.partitioned {
			continue
		}
		idle := len(n.running) == 0
		if e.frac != nil {
			idle = len(n.frac.order) == 0
		}
		if !idle || n.head < len(n.fifo) || n.loadActive || len(n.waiters) > 0 {
			continue
		}
		guard := true
		for _, g := range groups {
			if e.head.Caches[k].Contains(g.chunk) {
				guard = false
				break
			}
			eps := e.head.IdleThreshold(g.chunk, g.size, g.tasks)
			if e.head.InteractiveIdle(core.NodeID(k), now) > eps {
				guard = false
				break
			}
		}
		e.report.IdleSampled(guard, cycle)
	}
}
