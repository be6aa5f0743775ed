package sim

import (
	"fmt"

	"vizsched/internal/core"
	"vizsched/internal/fracshare"
	"vizsched/internal/metrics"
	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// This file is the engine half of the fractional-capacity subsystem (§5.13):
// with Config.FracShare set, the node executor (executor.go) runs K = Slots
// demand tasks at equal shares of the node, disk loads contend
// super-linearly, and a scheduler may place one co-scheduled guest per node
// at CoShare while the node has no demand work. What lives here is the
// guest's way in and the layer's reporting.

// fracRuntime is the fractional-capacity layer's outcome: meter integrates
// each node's aggregate busy share (the per-node utilization gauges),
// coMeter the guests' share alone (the reclaimed ε-guard idle).
type fracRuntime struct {
	meter   *fracshare.Meter
	coMeter *fracshare.Meter
	out     metrics.FracShareOutcome
}

// initFracShare sets the executor's slot count, contention exponent and
// guest share from the configuration, and hands the guest share to
// schedulers that support guest placement.
func (e *Engine) initFracShare() {
	cfg := e.cfg.FracShare
	e.slots, e.gamma, e.coShare = cfg.SlotCount(), cfg.Gamma(), cfg.CoShareValue()
	e.frac = &fracRuntime{
		meter:   fracshare.NewMeter(e.cfg.Nodes),
		coMeter: fracshare.NewMeter(e.cfg.Nodes),
	}
	e.frac.out.Slots = e.slots
	if cs, ok := e.cfg.Scheduler.(core.CoScheduleSetter); ok {
		cs.SetCoSchedule(e.coShare)
	}
}

// enqueueCo places a co-scheduled guest (§5.13) straight into the node's
// guest slot. The scheduler contract is one guest per node, enforced the
// same way as placement on a dead node: violating it is a policy bug, not a
// runtime condition.
func (e *Engine) enqueueCo(n *node, t *core.Task) {
	if e.coShare <= 0 {
		panic(fmt.Sprintf("sim: scheduler %s co-scheduled %v without FracShare co-scheduling enabled", e.cfg.Scheduler.Name(), t))
	}
	if n.guest != nil {
		panic(fmt.Sprintf("sim: scheduler %s co-scheduled %v onto node %d which already hosts a guest", e.cfg.Scheduler.Name(), t, n.id))
	}
	e.frac.out.CoScheduled++
	n.guest = e.run(n, t)
	n.guest.co = true
	e.reprice(n)
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
// enabling it cannot perturb golden outputs. A node running only a
// co-scheduled guest still counts as idle, keeping the GuardIdle
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
	// The first eight distinct pending batch chunks in queue order; eight
	// entries are searched faster than hashed.
	var sample [8]group
	sampled := 0
	seen := func(c volume.ChunkID) bool {
		for _, g := range sample[:sampled] {
			if g.chunk == c {
				return true
			}
		}
		return false
	}
walk:
	for _, j := range e.backlog.Jobs() {
		if j.Class != core.Batch {
			continue
		}
		for i := range j.Tasks {
			t := &j.Tasks[i]
			if t.Assigned || seen(t.Chunk) {
				continue
			}
			sample[sampled] = group{t.Chunk, t.Size, j.GroupSize()}
			if sampled++; sampled == len(sample) {
				break walk
			}
		}
	}
	if sampled == 0 {
		return
	}
	groups := sample[:sampled]
	now := e.sim.Now()
	cycle := core.CycleOf(e.cfg.Scheduler)
	for k, n := range e.nodes {
		if n.failed || n.stalled || n.draining || n.partitioned {
			continue
		}
		if len(n.order) > 0 || n.ready.Len() > 0 || n.loadActive || len(n.waiters) > 0 {
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
