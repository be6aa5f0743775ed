package baselines

import (
	"vizsched/internal/core"
	"vizsched/internal/units"
)

// Delay implements delay scheduling (Zaharia et al., EuroSys 2010 — the
// paper's reference [26] and the origin of its FS baseline): a task whose
// data-local nodes are busy *waits* rather than running remotely, up to a
// bound, because data locality usually frees up within a few task lengths.
// It is not one of the paper's six compared policies; it exists here as an
// extension baseline for the scheduling ablations.
type Delay struct {
	// Period is the scheduling cycle.
	Period units.Duration
	// Wait is D: how long a task may hold out for a cache-local slot before
	// accepting any node.
	Wait units.Duration
}

// NewDelay returns a delay scheduler; non-positive arguments select the
// default cycle and a wait of five cycles.
func NewDelay(period, wait units.Duration) *Delay {
	if period <= 0 {
		period = core.DefaultCycle
	}
	if wait <= 0 {
		wait = 5 * period
	}
	return &Delay{Period: period, Wait: wait}
}

// Name implements core.Scheduler.
func (*Delay) Name() string { return "DELAY" }

// Trigger implements core.Scheduler.
func (*Delay) Trigger() core.Trigger { return core.Periodic }

// Cycle implements core.Scheduler.
func (d *Delay) Cycle() units.Duration { return d.Period }

// Schedule implements core.Scheduler.
func (d *Delay) Schedule(now units.Time, queue []*core.Job, head *core.HeadState) []core.Assignment {
	var out []core.Assignment
	assign := func(t *core.Task, k core.NodeID) {
		t.State = core.TaskAssigned
		head.CommitAssign(t, k, now)
		out = append(out, core.Assignment{Task: t, Node: k})
	}
	for _, j := range queue {
		for i := range j.Tasks {
			t := &j.Tasks[i]
			if t.Assigned() {
				continue
			}
			local := head.CachedOn(t.Chunk)
			if len(local) == 0 {
				// No replica anywhere: waiting cannot buy locality.
				if k, ok := localNode(now, t, head); ok {
					assign(t, k)
				}
				continue
			}
			// Earliest-available local node.
			best := local[0]
			for _, k := range local[1:] {
				if head.Available[k] < head.Available[best] {
					best = k
				}
			}
			start := head.Available[best]
			if start < now {
				start = now
			}
			switch {
			case start.Sub(now) <= units.Duration(d.Wait):
				// A local slot frees soon enough: queue there.
				assign(t, best)
			case now.Sub(j.Issued) > units.Duration(d.Wait):
				// Waited long enough; take any node.
				if k, ok := localNode(now, t, head); ok {
					assign(t, k)
				}
			default:
				// Keep waiting for locality; re-presented next cycle.
			}
		}
	}
	return out
}
