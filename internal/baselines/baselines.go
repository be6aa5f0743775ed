// Package baselines implements the five scheduling policies the paper
// compares OURS against (§VI-B): FCFS, FCFSL, FCFSU, SF, and FS, each
// "modified moderately for our application" exactly as the paper describes —
// they share the head node's prediction tables and the greedy
// available-time strategy, and differ only in ordering, locality awareness,
// and data decomposition.
package baselines

import (
	"cmp"
	"slices"

	"vizsched/internal/core"
	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// greedyNode returns the alive node with the smallest predicted available
// time — the FCFS family's placement rule. Ties break toward lower IDs.
func greedyNode(head *core.HeadState) (core.NodeID, bool) {
	best := core.NodeID(-1)
	var bestAt units.Time
	for k := 0; k < head.Nodes(); k++ {
		if !head.Alive(core.NodeID(k)) {
			continue
		}
		if best < 0 || head.Available[k] < bestAt {
			best = core.NodeID(k)
			bestAt = head.Available[k]
		}
	}
	return best, best >= 0
}

// localNode returns the alive node minimizing predicted completion time
// max(Available, now) + cost(chunk, node) — greedy with data locality. The
// task is priced once for the whole scan (core.ExecPrice).
func localNode(now units.Time, t *core.Task, head *core.HeadState) (core.NodeID, bool) {
	price := head.PriceTask(t)
	best := core.NodeID(-1)
	var bestDone units.Time
	for k := 0; k < head.Nodes(); k++ {
		if !head.Alive(core.NodeID(k)) {
			continue
		}
		start := head.Available[k]
		if start < now {
			start = now
		}
		done := start.Add(price.On(core.NodeID(k)))
		if best < 0 || done < bestDone {
			best = core.NodeID(k)
			bestDone = done
		}
	}
	return best, best >= 0
}

// assignAll places every unassigned task of the given jobs using pick,
// committing each placement to the head tables.
func assignAll(now units.Time, jobs []*core.Job, head *core.HeadState,
	pick func(*core.Task) (core.NodeID, bool)) []core.Assignment {
	n := 0
	for _, j := range jobs {
		n += j.Remaining
	}
	out := make([]core.Assignment, 0, n)
	for _, j := range jobs {
		for i := range j.Tasks {
			t := &j.Tasks[i]
			if t.Assigned {
				continue
			}
			k, ok := pick(t)
			if !ok {
				return out
			}
			t.Assigned = true
			head.CommitAssign(t, k, now)
			out = append(out, core.Assignment{Task: t, Node: k})
		}
	}
	return out
}

// FCFS schedules jobs in arrival order, placing each task on the node with
// the smallest available time. No locality awareness: a chunk lands wherever
// the queue is shortest, so repeated renders of the same data keep paying
// disk I/O.
type FCFS struct{}

// Name implements core.Scheduler.
func (FCFS) Name() string { return "FCFS" }

// Trigger implements core.Scheduler.
func (FCFS) Trigger() core.Trigger { return core.OnArrival }

// Cycle implements core.Scheduler.
func (FCFS) Cycle() units.Duration { return 0 }

// Schedule implements core.Scheduler.
func (FCFS) Schedule(now units.Time, queue []*core.Job, head *core.HeadState) []core.Assignment {
	return assignAll(now, queue, head, func(*core.Task) (core.NodeID, bool) {
		return greedyNode(head)
	})
}

// FCFSL is FCFS with data locality in the greedy search: a task prefers the
// node where its completion — including any reload — would be earliest,
// which usually means the node caching its chunk.
type FCFSL struct{}

// Name implements core.Scheduler.
func (FCFSL) Name() string { return "FCFSL" }

// Trigger implements core.Scheduler.
func (FCFSL) Trigger() core.Trigger { return core.OnArrival }

// Cycle implements core.Scheduler.
func (FCFSL) Cycle() units.Duration { return 0 }

// Schedule implements core.Scheduler.
func (FCFSL) Schedule(now units.Time, queue []*core.Job, head *core.HeadState) []core.Assignment {
	return assignAll(now, queue, head, func(t *core.Task) (core.NodeID, bool) {
		return localNode(now, t, head)
	})
}

// FCFSU is FCFS with a uniform data partition: every dataset is split into
// exactly one chunk per rendering node and task i always runs on node i.
// Perfect, trivial data reuse — but every job occupies the whole cluster.
type FCFSU struct{}

// Name implements core.Scheduler.
func (FCFSU) Name() string { return "FCFSU" }

// Trigger implements core.Scheduler.
func (FCFSU) Trigger() core.Trigger { return core.OnArrival }

// Cycle implements core.Scheduler.
func (FCFSU) Cycle() units.Duration { return 0 }

// Decomposition implements core.DecompositionOverrider.
func (FCFSU) Decomposition(nodes int) volume.Decomposition {
	return volume.Uniform{N: nodes}
}

// Schedule implements core.Scheduler.
func (FCFSU) Schedule(now units.Time, queue []*core.Job, head *core.HeadState) []core.Assignment {
	p := head.Nodes()
	return assignAll(now, queue, head, func(t *core.Task) (core.NodeID, bool) {
		k := core.NodeID(t.Index % p)
		if head.Alive(k) {
			return k, true
		}
		// Fixed mapping has no alternative placement; fall back to greedy so
		// a crashed node does not wedge the whole service.
		return greedyNode(head)
	})
}

// SF (Shortest-First) gathers the jobs queued within each scheduling window
// and runs the cheapest ones first — classic mean-latency optimization with
// no locality awareness.
type SF struct {
	Window units.Duration
}

// NewSF returns a Shortest-First scheduler; non-positive windows select the
// default cycle.
func NewSF(window units.Duration) *SF {
	if window <= 0 {
		window = core.DefaultCycle
	}
	return &SF{Window: window}
}

// Name implements core.Scheduler.
func (*SF) Name() string { return "SF" }

// Trigger implements core.Scheduler.
func (*SF) Trigger() core.Trigger { return core.Periodic }

// Cycle implements core.Scheduler.
func (s *SF) Cycle() units.Duration { return s.Window }

// Schedule implements core.Scheduler.
func (s *SF) Schedule(now units.Time, queue []*core.Job, head *core.HeadState) []core.Assignment {
	// Estimate once per job up front: calling into the estimate table from
	// inside a comparator would re-price every job O(n log n) times.
	type jobEst struct {
		j   *core.Job
		est units.Duration
	}
	priced := make([]jobEst, 0, len(queue))
	for _, j := range queue {
		var sum units.Duration
		for i := range j.Tasks {
			t := &j.Tasks[i]
			if !t.Assigned {
				sum += head.Estimate(t.Chunk, t.Size, j.GroupSize())
			}
		}
		priced = append(priced, jobEst{j, sum})
	}
	slices.SortStableFunc(priced, func(a, b jobEst) int { return cmp.Compare(a.est, b.est) })
	ordered := make([]*core.Job, len(priced))
	for i, p := range priced {
		ordered[i] = p.j
	}
	return assignAll(now, ordered, head, func(*core.Task) (core.NodeID, bool) {
		return greedyNode(head)
	})
}

// FS (Fair-Sharing) allocates rendering capacity so that each action (user
// session or batch stream) receives an equal share of node time on average,
// the policy of Hadoop-style cluster schedulers [26]. Each cycle it releases
// all queued work in least-served-action-first order, so backlogged node
// queues interleave users fairly instead of first-come bursts.
type FS struct {
	Period units.Duration
	// service accumulates estimated node time granted per action.
	service map[core.ActionID]units.Duration
}

// NewFS returns a Fair-Sharing scheduler; non-positive periods select the
// default cycle.
func NewFS(period units.Duration) *FS {
	if period <= 0 {
		period = core.DefaultCycle
	}
	return &FS{Period: period, service: make(map[core.ActionID]units.Duration)}
}

// Name implements core.Scheduler.
func (*FS) Name() string { return "FS" }

// Trigger implements core.Scheduler.
func (*FS) Trigger() core.Trigger { return core.Periodic }

// Cycle implements core.Scheduler.
func (s *FS) Cycle() units.Duration { return s.Period }

// Schedule implements core.Scheduler.
func (s *FS) Schedule(now units.Time, queue []*core.Job, head *core.HeadState) []core.Assignment {
	ordered := append([]*core.Job(nil), queue...)
	slices.SortStableFunc(ordered, func(a, b *core.Job) int {
		return cmp.Compare(s.service[a.Action], s.service[b.Action])
	})
	var out []core.Assignment
	for _, j := range ordered {
		for i := range j.Tasks {
			t := &j.Tasks[i]
			if t.Assigned {
				continue
			}
			k, ok := greedyNode(head)
			if !ok {
				return out
			}
			t.Assigned = true
			exec := head.CommitAssign(t, k, now)
			s.service[j.Action] += exec
			out = append(out, core.Assignment{Task: t, Node: k})
		}
	}
	return out
}
