package core

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// LocalityScheduler is the paper's scheduler ("OURS", Algorithm 1): it runs
// every scheduling cycle ω, decomposes queued jobs into per-chunk task
// groups, schedules all interactive tasks immediately — same-chunk tasks in
// a cycle to the same node, chosen to minimize predicted completion time —
// and defers batch tasks: cached batch fills nodes only up to the next
// scheduling time λ, and non-cached batch (which implies a long disk load)
// is placed only on nodes that have served no interactive task for the
// idle threshold ε = Estimate[c]/2.
//
// A scheduler instance keeps scratch buffers (the H_I table, the free
// groups, and the assignment output) that are recycled between cycles, and
// carries H_B itself from one cycle to the next (group), so a steady-state
// cycle allocates only when the queue outgrows every previous cycle.
// Consequently an instance is not safe for concurrent use, and the slice
// returned by Schedule is only valid until the next Schedule call — both
// fine for the engine, which owns one instance per run and consumes
// assignments synchronously.
type LocalityScheduler struct {
	cycle units.Duration
	// DisableIdleGuard drops the ε idle-time condition on non-cached batch
	// placement (ablation: batch loads may then interrupt interactive
	// streams, the failure mode the guard exists to prevent).
	DisableIdleGuard bool
	// Replicas is the replication policy layer's target degree k (§5.6):
	// when ≥ 2, a bounded fraction of batch placements for under-replicated
	// chunks is diverted to the chunk's secondary node, so hot chunks become
	// k-resident out of real work instead of synthetic copies. 0/1 keeps the
	// paper's single-home behaviour exactly.
	Replicas int
	// SpreadEvery bounds the diverted fraction: one in every SpreadEvery
	// eligible batch placement opportunities goes to the secondary instead
	// of the primary. Non-positive selects DefaultSpreadEvery.
	SpreadEvery int
	// spreadTick counts eligible spread opportunities across cycles; purely
	// deterministic, so identical runs divert identical tasks.
	spreadTick int

	// prefetch, when set, plans background chunk warming (§5.8) after every
	// demand pass has committed — prefetch work ranks strictly below cached
	// batch and ε-eligible batch work by running last over the idle windows
	// they left. nil (the default) changes nothing.
	prefetch   PrefetchPlanner
	prefetches []PrefetchDirective

	// coShare, when positive, enables the fractional co-scheduling pass
	// (§5.13): each node the demand passes leave idle hosts one batch guest
	// at this share, preempted the instant demand work starts there. Zero
	// (the default) emits no co-scheduled assignments.
	coShare float64

	// H_I and H_B, indexed by Class: groups[class] holds a class's groups in
	// chunk order, byChunk[class] finds them by chunk. H_I lives one cycle
	// (its map is empty between walks); H_B is carried across cycles, with
	// the batch jobs it was grouped from (carried, in window order) and the
	// head whose residency sets its groups hold (hbHead).
	byChunk [2]volume.ChunkMap[*chunkGroup]
	groups  [2][]*chunkGroup
	carried []*Job
	hbHead  *HeadState

	// Per-cycle scratch, reused across Schedule calls.
	slab                    []*chunkGroup // H_I's groups, reused every cycle
	free                    []*chunkGroup // groups H_B let go
	batch                   []*Job        // the presented batch jobs; becomes carried
	cached, nonCached, rest []*chunkGroup
	starts                  startTree
	out                     []Assignment
}

// DefaultCycle is the ω used when none is specified: short enough that an
// interactive request never waits long for the next cycle at the paper's
// 33.33 fps target cadence (one request per 30 ms).
const DefaultCycle = 10 * units.Millisecond

// DefaultBatchWindow caps how many batch jobs one scheduling pass is shown —
// in both planes, always (Backlog.Present): the oldest queued ones.
// Interactive jobs are always shown.
const DefaultBatchWindow = 256

// DefaultSpreadEvery is the default diversion stride of the replication
// layer: one in four eligible batch placements goes to the secondary, slow
// enough that the primary keeps its locality advantage, fast enough that a
// hot chunk is k-resident within a few cycles.
const DefaultSpreadEvery = 4

// NewLocalityScheduler returns the paper's scheduler with the given cycle;
// a non-positive cycle selects DefaultCycle.
func NewLocalityScheduler(cycle units.Duration) *LocalityScheduler {
	if cycle <= 0 {
		cycle = DefaultCycle
	}
	return &LocalityScheduler{cycle: cycle}
}

// Name implements Scheduler.
func (s *LocalityScheduler) Name() string { return "OURS" }

// Trigger implements Scheduler.
func (s *LocalityScheduler) Trigger() Trigger { return Periodic }

// Cycle implements Scheduler.
func (s *LocalityScheduler) Cycle() units.Duration { return s.cycle }

// SetReplicas implements ReplicaSetter.
func (s *LocalityScheduler) SetReplicas(k int) { s.Replicas = k }

// SetPrefetchPlanner implements PrefetchSetter.
func (s *LocalityScheduler) SetPrefetchPlanner(p PrefetchPlanner) { s.prefetch = p }

// SetCoSchedule implements CoScheduleSetter: a positive share turns on the
// fractional co-scheduling pass (§5.13).
func (s *LocalityScheduler) SetCoSchedule(share float64) { s.coShare = share }

// PlannedPrefetches implements PrefetchSource. The slice is valid until the
// next Schedule call.
func (s *LocalityScheduler) PlannedPrefetches() []PrefetchDirective { return s.prefetches }

// spreadEvery returns the effective diversion stride.
func (s *LocalityScheduler) spreadEvery() int {
	if s.SpreadEvery > 0 {
		return s.SpreadEvery
	}
	return DefaultSpreadEvery
}

// chunkGroup is one entry of the H_I / H_B tables: the unassigned tasks that
// need the same chunk, in window order, plus the sort keys Schedule
// precomputes so its orderings never call into the head tables from inside
// a comparator.
type chunkGroup struct {
	chunk volume.ChunkID
	size  units.Bytes
	// tasks[off:] are the pending tasks. A task leaves the group the moment
	// it is assigned (drop): its slot is cleared, so a group never pins a
	// job whose tasks have all been placed, and push compacts the array
	// before it would grow.
	tasks []*Task
	off   int
	// on is Cache[c], the head's live residency set: "is c cached on node
	// k" is a bit test that sees placements committed earlier in the cycle.
	on nodeSet
	// est caches Estimate[c] for the non-cached interactive ordering;
	// replicas caches the predicted replica count for rarest-first batch.
	est      units.Duration
	replicas int
}

// pending returns the group's pending tasks in window order.
func (g *chunkGroup) pending() []*Task { return g.tasks[g.off:] }

// push appends a pending task.
func (g *chunkGroup) push(t *Task) {
	if g.off > 0 && len(g.tasks) == cap(g.tasks) {
		n := copy(g.tasks, g.tasks[g.off:])
		clear(g.tasks[n:])
		g.tasks, g.off = g.tasks[:n], 0
	}
	g.tasks = append(g.tasks, t)
}

// drop lets the first pending task leave the group.
func (g *chunkGroup) drop() {
	g.tasks[g.off] = nil
	g.off++
}

// newGroup returns an empty group for chunk c. A cycle's i-th H_I group is
// the slab's i-th, so its task array mostly fits already (the walk meets
// the chunks in much the same order every cycle); an H_B group is one H_B
// let go, or a new one.
func (s *LocalityScheduler) newGroup(class Class, c volume.ChunkID, size units.Bytes, on nodeSet) *chunkGroup {
	var g *chunkGroup
	switch n := len(s.free); {
	case class == Interactive:
		i := s.byChunk[Interactive].Len()
		if i == len(s.slab) {
			s.slab = append(s.slab, new(chunkGroup))
		}
		g = s.slab[i]
	case n > 0:
		g, s.free = s.free[n-1], s.free[:n-1]
	default:
		g = new(chunkGroup)
	}
	clear(g.pending()) // a placed task's slot is clear already
	g.chunk = c
	g.size = size
	g.tasks = g.tasks[:0]
	g.off = 0
	g.on = on
	g.est = 0
	g.replicas = 0
	return g
}

// release empties g, which H_B let go, for newGroup.
func (s *LocalityScheduler) release(g *chunkGroup) {
	clear(g.pending())
	g.tasks, g.off = g.tasks[:0], 0
	s.free = append(s.free, g)
}

// group is lines 2–7: the presented jobs' unassigned tasks bucketed by chunk
// into H_I and H_B, each class's groups in chunk order. H_I is built fresh
// by one walk over the interactive jobs' tasks. H_B is carried (DESIGN.md
// §5.17 "The carried window"): when carries says the presented batch jobs
// extend the ones it holds, only the new jobs' tasks are appended; otherwise
// H_B is emptied and every presented batch job appended — the same append.
// Either way a group's tasks stay in window order.
func (s *LocalityScheduler) group(queue []*Job, head *HeadState) {
	batch := s.batch[:0]
	for _, j := range queue {
		if j.Class == Batch {
			batch = append(batch, j)
		} else {
			s.add(Interactive, j, head)
		}
	}
	from, ok := s.carries(batch, head)
	if !ok {
		for _, g := range s.groups[Batch] {
			s.release(g)
		}
		s.groups[Batch] = s.groups[Batch][:0]
		s.byChunk[Batch].Clear()
		s.hbHead = head
	}
	had := s.byChunk[Batch].Len()
	for _, j := range batch[from:] {
		s.add(Batch, j, head)
	}
	clear(s.carried)
	s.carried, s.batch = batch, s.carried[:0]
	s.readGroups(Interactive)
	s.byChunk[Interactive].Clear()
	if s.byChunk[Batch].Len() != had {
		s.readGroups(Batch)
	}
}

// add appends j's unassigned tasks to their class's groups.
func (s *LocalityScheduler) add(class Class, j *Job, head *HeadState) {
	byChunk := &s.byChunk[class]
	for i := range j.Tasks {
		t := &j.Tasks[i]
		if t.Assigned {
			continue
		}
		g, _ := byChunk.Get(t.Chunk)
		if g == nil {
			g = s.newGroup(class, t.Chunk, t.Size, head.residency(t.Chunk))
			byChunk.Set(t.Chunk, g)
		}
		g.push(t)
	}
}

// readGroups reads a class's groups out of its map in chunk order.
func (s *LocalityScheduler) readGroups(class Class) {
	gs := s.groups[class][:0]
	s.byChunk[class].Range(func(_ volume.ChunkID, g *chunkGroup) bool {
		gs = append(gs, g)
		return true
	})
	s.groups[class] = gs
}

// carries reports whether H_B as the last cycle left it is the grouping of
// the presented batch jobs up to the first new one, whose index it returns.
// Three conditions must hold (DESIGN.md §5.17 "The carried window"):
//  1. the presented jobs start with the carried ones in the same order, less
//     those that finished — a job that left with tasks pending, or moved,
//     fails this;
//  2. the carried jobs' Remaining sums to the tasks H_B holds: every task H_B
//     let go was assigned, and Remaining only rises by a requeue, which puts
//     back a task H_B no longer holds;
//  3. head is the one whose residency sets H_B's groups hold.
func (s *LocalityScheduler) carries(batch []*Job, head *HeadState) (int, bool) {
	if head != s.hbHead {
		return 0, false
	}
	i, remaining := 0, 0
	for _, j := range s.carried {
		remaining += j.Remaining
		if i < len(batch) && batch[i] == j {
			i++
		} else if j.Remaining != 0 {
			return 0, false
		}
	}
	held := 0
	for _, g := range s.groups[Batch] {
		held += len(g.pending())
	}
	if remaining != held {
		return 0, false
	}
	return i, true
}

// front returns g's first pending task, nil when it has none. A held task
// found assigned means H_B went stale unseen: the live head reclaims a
// requeued task whose first run reported after all, and a requeue in the
// same interval can balance carries' sum. The task is dropped and H_B is
// rebuilt next cycle.
func (s *LocalityScheduler) front(g *chunkGroup) *Task {
	for ; g.off < len(g.tasks); g.drop() {
		if t := g.tasks[g.off]; !t.Assigned {
			return t
		}
		s.hbHead = nil
	}
	return nil
}

// Schedule implements Algorithm 1.
func (s *LocalityScheduler) Schedule(now units.Time, queue []*Job, head *HeadState) []Assignment {
	lambda := now.Add(s.cycle) // λ: the next scheduling time
	clear(s.out)               // the last cycle's assignments must not pin their jobs
	out := s.out[:0]
	// take assigns g's first pending task t to node k; t leaves the group.
	take := func(g *chunkGroup, t *Task, k NodeID) {
		g.drop()
		t.Assigned = true
		head.CommitAssign(t, k, now)
		out = append(out, Assignment{Task: t, Node: k})
	}

	// Lines 2–7: decompose queued jobs into per-chunk task groups.
	s.group(queue, head)
	hi, hb := s.groups[Interactive], s.groups[Batch]

	// Lines 8–9: split interactive groups into cached / non-cached; sort the
	// non-cached by estimated execution time so cheap loads start first.
	cached, nonCached := s.cached[:0], s.nonCached[:0]
	for _, g := range hi {
		if g.on.countIn(head.up) > 0 {
			cached = append(cached, g)
		} else {
			g.est = head.Estimate(g.chunk, g.size, g.tasks[0].Job.GroupSize())
			nonCached = append(nonCached, g)
		}
	}
	s.cached, s.nonCached = cached, nonCached
	slices.SortStableFunc(nonCached, func(a, b *chunkGroup) int {
		if c := cmp.Compare(a.est, b.est); c != 0 {
			return c
		}
		return volume.CompareChunks(a.chunk, b.chunk)
	})

	// Lines 10–15: every interactive group goes, whole, to the node with the
	// earliest predicted completion for its chunk. Only the chosen node's
	// predicted start moves, so the start tree repairs one leaf.
	if len(hi) > 0 {
		s.starts.build(now, head)
	}
	placeWhole := func(g *chunkGroup) {
		k, ok := s.bestNode(now, g, head)
		if !ok {
			return // no node alive; engine will retry next cycle
		}
		for _, t := range g.pending() {
			take(g, t, k)
		}
		s.starts.set(k, max(head.Available[k], now))
	}
	for _, g := range cached {
		placeWhole(g)
	}
	for _, g := range nonCached {
		placeWhole(g)
	}

	// Replication pass (§5.6, before cached batch reinforces primaries):
	// for each cached-but-under-replicated chunk, every spreadEvery-th
	// opportunity diverts one batch task to the chunk's secondary node. The
	// task misses there, which loads the chunk — a deliberate replica bought
	// with real work. The secondary must be ε-idle (the miss implies a disk
	// load, the same reasoning as non-cached batch) and still inside λ, and
	// diversion stops once the chunk is k-resident, so the policy never
	// drives replica counts past k.
	if s.Replicas > 1 {
		for _, g := range hb {
			rc := g.on.countIn(head.up)
			if rc == 0 || rc >= s.Replicas {
				continue // zero-replica chunks take the rarest-first ε path
			}
			s.spreadTick++
			if s.spreadTick%s.spreadEvery() != 0 {
				continue
			}
			sec, ok := head.SecondaryFor(g.chunk)
			if !ok || !head.Available[sec].Before(lambda) {
				continue
			}
			if t := s.front(g); t != nil && s.idleOK(head, g, t, sec, now) {
				take(g, t, sec)
			}
		}
	}

	// Lines 16–22: cached batch tasks fill each node until its predicted
	// available time crosses λ.
	for k := 0; k < head.Nodes(); k++ {
		node := NodeID(k)
		if !head.Alive(node) {
			continue
		}
	cachedBatch:
		for _, g := range hb {
			if !g.on.has(node) {
				continue
			}
			for t := s.front(g); t != nil; t = s.front(g) {
				if !head.Available[k].Before(lambda) {
					break cachedBatch
				}
				take(g, t, node)
			}
		}
	}

	// Lines 23–31: non-cached batch, rarest chunks first (fewest predicted
	// replicas), placed only on nodes idle of interactive work for ε.
	rest := s.rest[:0]
	for _, g := range hb {
		if s.front(g) != nil {
			g.replicas = g.on.countIn(head.up)
			rest = append(rest, g)
		}
	}
	s.rest = rest
	slices.SortStableFunc(rest, func(a, b *chunkGroup) int {
		if c := cmp.Compare(a.replicas, b.replicas); c != 0 {
			return c
		}
		return volume.CompareChunks(a.chunk, b.chunk)
	})
	gi := 0
	for k := 0; k < head.Nodes() && gi < len(rest); k++ {
		node := NodeID(k)
		if !head.Alive(node) {
			continue
		}
		for gi < len(rest) && head.Available[k].Before(lambda) {
			g := rest[gi]
			t := s.front(g)
			if t == nil {
				gi++
				continue
			}
			if !s.idleOK(head, g, t, node, now) {
				break // this node served interactive work too recently
			}
			// Replication (§5.6): once the group's first task has seeded a
			// home (replica count ≥ 1), later tasks of an under-replicated
			// chunk are occasionally diverted to the secondary, under the
			// same ε and λ conditions the primary placement obeys.
			target := node
			if s.Replicas > 1 {
				if rc := g.on.countIn(head.up); rc > 0 && rc < s.Replicas {
					s.spreadTick++
					if s.spreadTick%s.spreadEvery() == 0 {
						if sec, ok := head.SecondaryFor(g.chunk); ok && sec != node &&
							head.Available[sec].Before(lambda) && s.idleOK(head, g, t, sec, now) {
							target = sec
						}
					}
				}
			}
			take(g, t, target)
		}
	}
	// Co-schedule pass (§5.13): every alive node the demand passes above
	// left idle — in steady state that means the ε-guard refused it
	// non-cached batch while it shadows an interactive stream — hosts at
	// most one batch guest at fractional share. The engine runs the guest
	// only while the node has no demand task and suspends its share the
	// instant one starts, so the guard's reason (a started load cannot be
	// abandoned) no longer applies. Guests prefer a chunk already cached on
	// the node (a pure-compute guest); failing that, the first pending group
	// in hb order — with QoS enabled the presented window was popped by DRR,
	// so guest picks inherit the same fair-order guarantee as demand batch.
	if s.coShare > 0 {
		for k := 0; k < head.Nodes(); k++ {
			node := NodeID(k)
			if !head.Alive(node) || head.CoBusy(node) || head.Available[k].After(now) {
				continue
			}
			g, pick := s.guest(hb, node)
			if pick == nil {
				break // no pending batch work anywhere
			}
			g.drop()
			pick.Assigned = true
			head.CommitCoAssign(pick, node, now)
			out = append(out, Assignment{Task: pick, Node: node, CoScheduled: true})
		}
	}

	// Empty groups leave H_B before the next cycle: its replication pass
	// must not count one toward spreadTick.
	kept := hb[:0]
	for _, g := range hb {
		if s.front(g) == nil {
			s.byChunk[Batch].Delete(g.chunk)
			s.release(g)
		} else {
			kept = append(kept, g)
		}
	}
	clear(hb[len(kept):])
	s.groups[Batch] = kept

	// Prefetch pass (§5.8): runs last, over whatever idle capacity the
	// demand passes left inside [now, λ).
	s.prefetches = s.prefetches[:0]
	if s.prefetch != nil {
		s.prefetches = append(s.prefetches, s.prefetch.Plan(now, lambda, head)...)
	}
	s.out = out
	return out
}

// guest picks node k's co-scheduled task: the first pending task of the
// first group cached on k, else of the first group with one.
func (s *LocalityScheduler) guest(hb []*chunkGroup, k NodeID) (*chunkGroup, *Task) {
	for _, g := range hb {
		if g.on.has(k) {
			if t := s.front(g); t != nil {
				return g, t
			}
		}
	}
	for _, g := range hb {
		if t := s.front(g); t != nil {
			return g, t
		}
	}
	return nil, nil
}

// idleOK reports whether node k satisfies the ε idle-time condition for
// placing t, a non-cached batch task of the group's chunk.
func (s *LocalityScheduler) idleOK(head *HeadState, g *chunkGroup, t *Task, k NodeID, now units.Time) bool {
	if s.DisableIdleGuard {
		return true
	}
	eps := head.IdleThreshold(g.chunk, g.size, t.Job.GroupSize())
	return head.InteractiveIdle(k, now) > eps
}

// bestNode returns the alive node minimizing predicted completion time for
// the group's chunk: max(Available[k], now) + cost, where cost is the hit
// cost on nodes predicted to hold the chunk and Estimate[c] elsewhere, ties
// to the lowest node ID. Both costs are the same on every node and the miss
// is floored above the hit (HeadState.Estimate), so the best node holding no
// copy is the earliest-starting one — the start tree's root — and only the
// alive holders are priced besides it (DESIGN.md §5.17 "The start tree").
// A miss price that comes through the estimate source per node keeps the
// scan, which asks it once per non-resident node.
func (s *LocalityScheduler) bestNode(now units.Time, g *chunkGroup, head *HeadState) (NodeID, bool) {
	price := head.price(g.pending()[0], g.on)
	if price.perNode {
		return scanBestNode(now, &price, head)
	}
	best := s.starts.root()
	if s.starts.start[best] == never {
		return -1, false
	}
	bestDone := s.starts.start[best].Add(price.miss)
	for i, w := range g.on {
		for w &= head.up[i]; w != 0; w &= w - 1 {
			k := NodeID(i<<6 | bits.TrailingZeros64(w))
			if done := s.starts.start[k].Add(price.hit); done < bestDone || done == bestDone && k < best {
				best, bestDone = k, done
			}
		}
	}
	return best, true
}

// scanBestNode is bestNode by a scan of every node, pricing each through
// price.On.
func scanBestNode(now units.Time, price *ExecPrice, head *HeadState) (NodeID, bool) {
	best := NodeID(-1)
	var bestDone units.Time
	for k := 0; k < head.Nodes(); k++ {
		if !head.Alive(NodeID(k)) {
			continue
		}
		start := head.Available[k]
		if start < now {
			start = now
		}
		done := start.Add(price.On(NodeID(k)))
		if best < 0 || done < bestDone {
			best = NodeID(k)
			bestDone = done
		}
	}
	return best, best >= 0
}

// never is the start of a node that takes no work.
const never = units.Time(math.MaxInt64)

// startTree is a winner (tournament) tree over the nodes keyed by predicted
// start (max(Available[k], now), k): alive nodes at their start, the rest and
// the padding up to a power of two at never. It is one cycle's scratch, built
// before the interactive passes and repaired a leaf per placement.
type startTree struct {
	start []units.Time // per leaf
	win   []int32      // win[i] is the winning leaf under tree node i; leaf k is node len(start)+k
}

// build fills the tree from the head's tables in O(p).
func (t *startTree) build(now units.Time, head *HeadState) {
	n := 1
	for n < head.Nodes() {
		n <<= 1
	}
	t.start = slices.Grow(t.start[:0], n)[:n]
	t.win = slices.Grow(t.win[:0], 2*n)[:2*n]
	for k := range t.start {
		t.start[k] = never
		if k < head.Nodes() && head.Alive(NodeID(k)) {
			t.start[k] = max(head.Available[k], now)
		}
		t.win[n+k] = int32(k)
	}
	for i := n - 1; i >= 1; i-- {
		t.win[i] = t.winner(t.win[2*i], t.win[2*i+1])
	}
}

// winner returns the earlier-starting of two leaves, the lower on a tie.
func (t *startTree) winner(a, b int32) int32 {
	if t.start[b] < t.start[a] {
		return b
	}
	return a
}

// root returns the earliest-starting node, the lowest ID among equals.
func (t *startTree) root() NodeID { return NodeID(t.win[1]) }

// set moves alive node k's predicted start and replays its path to the
// root in O(log p).
func (t *startTree) set(k NodeID, start units.Time) {
	n := len(t.start)
	t.start[k] = start
	for i := (n + int(k)) >> 1; i >= 1; i >>= 1 {
		t.win[i] = t.winner(t.win[2*i], t.win[2*i+1])
	}
}
