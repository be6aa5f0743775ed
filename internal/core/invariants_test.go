package core

import (
	"fmt"
	"math/rand"
	"testing"

	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// This file is the replication layer's property suite: randomized workloads
// and fault schedules drive the OURS scheduler cycle by cycle through the
// same Schedule → CommitAssign → Correct loop the engine and the live head
// use, and after every cycle the head-state invariants below must hold.
// CI runs it under -race -count=3 alongside the fault tests.

// invariantWorld drives one randomized run: a head, a scheduler, a rolling
// queue, and a seeded rng for job arrivals and fault injection.
type invariantWorld struct {
	t     *testing.T
	rng   *rand.Rand
	head  *HeadState
	sched *LocalityScheduler
	queue []*Job
	k     int
	now   units.Time
	next  JobID
}

func newInvariantWorld(t *testing.T, seed int64, nodes, k int) *invariantWorld {
	head := NewHeadState(nodes, 2*units.GB, System1CostModel())
	head.SetReplication(k)
	sched := NewLocalityScheduler(0)
	sched.SetReplicas(k)
	return &invariantWorld{
		t: t, rng: rand.New(rand.NewSource(seed)),
		head: head, sched: sched, k: k, next: 1,
	}
}

// arrive appends a random job to the queue.
func (w *invariantWorld) arrive() {
	class := Interactive
	if w.rng.Intn(3) == 0 {
		class = Batch
	}
	ds := volume.DatasetID(w.rng.Intn(3) + 1)
	chunks := w.rng.Intn(4) + 1
	j := &Job{
		ID: w.next, Class: class,
		Action:  ActionID(w.rng.Intn(4) + 1),
		Dataset: ds, Issued: w.now,
	}
	w.next++
	j.Tasks = make([]Task, chunks)
	for i := range j.Tasks {
		j.Tasks[i] = Task{
			Job: j, Index: i,
			Chunk: volume.ChunkID{Dataset: ds, Index: i},
			Size:  units.Bytes(w.rng.Intn(4)+1) * 64 * units.MB,
		}
	}
	j.Remaining = int32(chunks)
	w.queue = append(w.queue, j)
}

// alive counts HealthUp nodes.
func (w *invariantWorld) alive() int {
	n := 0
	for k := 0; k < w.head.Nodes(); k++ {
		if w.head.Alive(NodeID(k)) {
			n++
		}
	}
	return n
}

// chaos randomly fails and repairs nodes, keeping at least two alive so the
// scheduler always has a placement choice.
func (w *invariantWorld) chaos() {
	if w.rng.Intn(4) == 0 && w.alive() > 2 {
		victims := []NodeID{}
		for k := 0; k < w.head.Nodes(); k++ {
			if w.head.Alive(NodeID(k)) {
				victims = append(victims, NodeID(k))
			}
		}
		w.head.MarkFailed(victims[w.rng.Intn(len(victims))])
	}
	if w.rng.Intn(4) == 0 {
		for k := 0; k < w.head.Nodes(); k++ {
			if w.head.Health(NodeID(k)) == HealthDown {
				w.head.MarkRepaired(NodeID(k), w.now)
				break
			}
		}
	}
}

// cycle runs one scheduling cycle: arrivals, chaos, Schedule, CommitAssign,
// and random Corrects, returning the cycle's assignments.
func (w *invariantWorld) cycle() []Assignment {
	for i := w.rng.Intn(4); i > 0; i-- {
		w.arrive()
	}
	w.chaos()
	asn := w.sched.Schedule(w.now, w.queue, w.head)
	for _, a := range asn {
		exec := w.head.CommitAssign(a.Task, a.Node, w.now)
		a.Task.Job.Remaining--
		// Feed back a noisy completion for a random subset, exercising
		// Correct's estimate updates and predicted-cache reconciliation.
		if w.rng.Intn(2) == 0 {
			noise := units.Duration(w.rng.Int63n(int64(exec)/4 + 1))
			w.head.Correct(TaskResult{
				Task: a.Task, Node: a.Node, Hit: w.rng.Intn(2) == 0,
				Exec: exec + noise, Predicted: exec, Finished: w.now.Add(exec),
			}, w.now.Add(exec))
		}
	}
	live := w.queue[:0]
	for _, j := range w.queue {
		if j.Remaining > 0 {
			live = append(live, j)
		}
	}
	w.queue = live
	w.now = w.now.Add(100 * units.Millisecond)
	return asn
}

// checkState asserts the per-cycle head-state invariants.
func (w *invariantWorld) checkState(cycleNo int) {
	h := w.head
	if err := h.Validate(); err != nil {
		w.t.Fatalf("cycle %d: %v", cycleNo, err)
	}
	// (1) Cache-table consistency: CachedOn(c) must agree with the per-node
	// caches and contain only HealthUp nodes, and ReplicaCount must be its
	// cardinality — both views of Cache[c] derive from the same tables.
	chunks := map[volume.ChunkID]bool{}
	for k := 0; k < h.Nodes(); k++ {
		for _, c := range h.Caches[k].Resident() {
			chunks[c] = true
		}
	}
	for c := range chunks {
		on := h.CachedOn(c)
		if len(on) != h.ReplicaCount(c) {
			w.t.Fatalf("cycle %d: chunk %v: CachedOn=%v but ReplicaCount=%d", cycleNo, c, on, h.ReplicaCount(c))
		}
		for _, n := range on {
			if !h.Alive(n) {
				w.t.Fatalf("cycle %d: chunk %v cached on dead node %d", cycleNo, c, n)
			}
			if !h.Caches[n].Contains(c) {
				w.t.Fatalf("cycle %d: chunk %v: CachedOn says node %d but cache disagrees", cycleNo, c, n)
			}
		}
	}
	// (2) Home sets: never longer than k, no duplicate members, no
	// HealthDown members (re-homing must have scrubbed them), and the
	// pressure table must equal a fresh recount of home slots.
	recount := make([]int, h.Nodes())
	for c := range chunks {
		hs := h.HomeSet(c)
		if len(hs) > w.k {
			w.t.Fatalf("cycle %d: chunk %v home set %v exceeds k=%d", cycleNo, c, hs, w.k)
		}
		seen := map[NodeID]bool{}
		for _, n := range hs {
			if seen[n] {
				w.t.Fatalf("cycle %d: chunk %v home set %v has duplicates", cycleNo, c, hs)
			}
			seen[n] = true
			if h.Health(n) == HealthDown {
				w.t.Fatalf("cycle %d: chunk %v home set %v contains down node %d", cycleNo, c, hs, n)
			}
		}
	}
	h.homes.Range(func(_ volume.ChunkID, hs []NodeID) bool {
		for _, n := range hs {
			recount[n]++
		}
		return true
	})
	for k, want := range recount {
		if got := h.Pressure(NodeID(k)); got != want {
			w.t.Fatalf("cycle %d: pressure[%d]=%d, recount says %d", cycleNo, k, got, want)
		}
	}
}

// checkInteractiveGrouping asserts that within one cycle's assignments, all
// interactive tasks on the same chunk landed on one node — the render-group
// co-location Algorithm 1 guarantees (same-chunk interactive work shares an
// upload, so splitting it wastes the cache).
func (w *invariantWorld) checkInteractiveGrouping(cycleNo int, asn []Assignment) {
	where := map[volume.ChunkID]NodeID{}
	for _, a := range asn {
		if a.Task.Job.Class != Interactive {
			continue
		}
		if prev, ok := where[a.Task.Chunk]; ok && prev != a.Node {
			w.t.Fatalf("cycle %d: interactive chunk %v split across nodes %d and %d",
				cycleNo, a.Task.Chunk, prev, a.Node)
		}
		where[a.Task.Chunk] = a.Node
	}
}

// TestInvariantReplicaSets drives randomized workloads with fault injection
// at several replication degrees and checks the cache/home/pressure
// invariants after every cycle.
func TestInvariantReplicaSets(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("k=%d/seed=%d", k, seed), func(t *testing.T) {
				w := newInvariantWorld(t, seed, 5, k)
				for cycle := 0; cycle < 120; cycle++ {
					asn := w.cycle()
					w.checkState(cycle)
					w.checkInteractiveGrouping(cycle, asn)
				}
			})
		}
	}
}

// TestInvariantInteractiveGroupOneNode focuses the grouping property on a
// workload that is mostly same-action interactive frames, where splitting
// would be most tempting for a load balancer.
func TestInvariantInteractiveGroupOneNode(t *testing.T) {
	w := newInvariantWorld(t, 99, 4, 2)
	for cycle := 0; cycle < 80; cycle++ {
		j := &Job{ID: w.next, Class: Interactive, Action: 1, Dataset: 1, Issued: w.now}
		w.next++
		j.Tasks = make([]Task, 4)
		for i := range j.Tasks {
			j.Tasks[i] = Task{Job: j, Index: i,
				Chunk: volume.ChunkID{Dataset: 1, Index: i}, Size: 128 * units.MB}
		}
		j.Remaining = 4
		w.queue = append(w.queue, j)
		asn := w.cycle()
		w.checkInteractiveGrouping(cycle, asn)
	}
}

// TestInvariantBatchNotStarved asserts the ε-deferral can postpone but never
// permanently starve batch work: with a steady single-action interactive
// stream pinning one node, a batch job over a cold dataset must still be
// fully assigned within a bounded number of cycles (other nodes accumulate
// interactive-idle time and cross ε).
func TestInvariantBatchNotStarved(t *testing.T) {
	for _, k := range []int{1, 2} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			head := NewHeadState(4, 2*units.GB, System1CostModel())
			head.SetReplication(k)
			sched := NewLocalityScheduler(0)
			sched.SetReplicas(k)
			now := units.Time(0)
			next := JobID(1)

			batch := &Job{ID: next, Class: Batch, Dataset: 2, Issued: now}
			next++
			batch.Tasks = make([]Task, 3)
			for i := range batch.Tasks {
				batch.Tasks[i] = Task{Job: batch, Index: i,
					Chunk: volume.ChunkID{Dataset: 2, Index: i}, Size: 256 * units.MB}
			}
			batch.Remaining = 3
			queue := []*Job{batch}

			for cycle := 0; cycle < 200 && batch.Remaining > 0; cycle++ {
				frame := &Job{ID: next, Class: Interactive, Action: 1, Dataset: 1, Issued: now}
				next++
				frame.Tasks = []Task{{Job: frame, Index: 0,
					Chunk: volume.ChunkID{Dataset: 1, Index: 0}, Size: 128 * units.MB}}
				frame.Remaining = 1
				queue = append(queue, frame)

				for _, a := range sched.Schedule(now, queue, head) {
					head.CommitAssign(a.Task, a.Node, now)
					a.Task.Job.Remaining--
				}
				live := queue[:0]
				for _, j := range queue {
					if j.Remaining > 0 {
						live = append(live, j)
					}
				}
				queue = live
				now = now.Add(100 * units.Millisecond)
			}
			if batch.Remaining > 0 {
				t.Fatalf("batch job still has %d unassigned tasks after 200 cycles (k=%d)", batch.Remaining, k)
			}
		})
	}
}
