package baselines

import (
	"vizsched/internal/core"
	"vizsched/internal/units"
)

// DFRS is the dynamic-fractional-resource-scheduling baseline (§5.13, after
// Casanova/Stillwell/Vivien, arXiv:1106.4985): instead of committing every
// queued task to a node FIFO at arrival like the FCFS family, it re-binds
// work every window, packing each node with up to Slots concurrently
// running tasks at equal fractional shares. Two behaviours fall out:
//
//   - Late binding: a batch task is placed only when some node's committed
//     backlog is below Slots tasks' worth of work; everything else stays in
//     the queue and re-binds next window. Nodes therefore never sit idle
//     behind another node's mispredicted FIFO — the utilization gap the
//     DFRS paper measures against batch scheduling.
//   - Fractional execution: the fracshare engine (sim.Config.FracShare)
//     runs the node's committed tasks concurrently at equal shares and
//     re-prices completions as the share changes, so short tasks are not
//     convoyed behind long ones — the stretch gap.
//
// The paper's DFRS re-allocates shares periodically; here the placement
// half re-binds every Window while the engine re-allocates shares at every
// task start and completion — the continuous limit of the same policy, and
// the natural fit for a DES. DFRS reads the same head tables as every other
// policy: Available[k] remains a good drain-time predictor under equal
// shares, because the shares of a node's tasks always sum to its capacity.
//
// Without the fracshare layer the engine serializes each node's queue and
// DFRS degrades to a late-binding FCFSL — placement still re-binds, but
// nothing runs fractionally. The fracsweep experiment always pairs DFRS
// with FracShare.
type DFRS struct {
	Window units.Duration
	// Slots bounds each node's committed in-flight work to Slots tasks'
	// worth; non-positive selects fracshare's default slot count (2).
	Slots int
}

// NewDFRS returns the DFRS baseline; non-positive windows select the default
// cycle and non-positive slot counts the fracshare default.
func NewDFRS(window units.Duration, slots int) *DFRS {
	if window <= 0 {
		window = core.DefaultCycle
	}
	if slots <= 0 {
		slots = 2
	}
	return &DFRS{Window: window, Slots: slots}
}

// Name implements core.Scheduler.
func (*DFRS) Name() string { return "DFRS" }

// Trigger implements core.Scheduler.
func (*DFRS) Trigger() core.Trigger { return core.Periodic }

// Cycle implements core.Scheduler.
func (s *DFRS) Cycle() units.Duration { return s.Window }

// Schedule implements core.Scheduler. Interactive tasks place immediately
// on the completion-optimal node (they must not wait a window); batch tasks
// late-bind: a node is eligible only while its committed backlog is below
// Slots × the task's predicted execution, and ineligible tasks simply stay
// queued for the next window.
func (s *DFRS) Schedule(now units.Time, queue []*core.Job, head *core.HeadState) []core.Assignment {
	var out []core.Assignment
	for _, j := range queue {
		for i := range j.Tasks {
			t := &j.Tasks[i]
			if t.Assigned() {
				continue
			}
			var k core.NodeID
			var ok bool
			if j.Class == core.Interactive {
				k, ok = localNode(now, t, head)
			} else {
				k, ok = s.fractionalNode(now, t, head)
			}
			if !ok {
				continue // late binding: no capacity now, re-bind next window
			}
			t.State = core.TaskAssigned
			head.CommitAssign(t, k, now)
			out = append(out, core.Assignment{Task: t, Node: k})
		}
	}
	return out
}

// fractionalNode returns the completion-optimal node whose committed
// backlog still has a free fractional slot for t: Available[k] − now must be
// under Slots × the task's predicted execution there. False when every node
// is packed — the task stays queued.
func (s *DFRS) fractionalNode(now units.Time, t *core.Task, head *core.HeadState) (core.NodeID, bool) {
	price := head.PriceTask(t)
	best := core.NodeID(-1)
	var bestDone units.Time
	for k := 0; k < head.Nodes(); k++ {
		if !head.Alive(core.NodeID(k)) {
			continue
		}
		exec := price.On(core.NodeID(k))
		backlog := head.Available[k].Sub(now)
		if backlog > 0 && backlog >= exec*units.Duration(s.Slots) {
			continue // node packed: Slots tasks' worth already committed
		}
		start := head.Available[k]
		if start < now {
			start = now
		}
		done := start.Add(exec)
		if best < 0 || done < bestDone {
			best = core.NodeID(k)
			bestDone = done
		}
	}
	return best, best >= 0
}
