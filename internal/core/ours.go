package core

import (
	"cmp"
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
// A scheduler instance keeps scratch buffers (the H_I/H_B tables, the
// group slab, and the assignment output) that are recycled between cycles,
// so a steady-state cycle allocates only when the queue outgrows every
// previous cycle. Consequently an instance is not safe for concurrent use,
// and the slice returned by Schedule is only valid until the next Schedule
// call — both fine for the engine, which owns one instance per run and
// consumes assignments synchronously.
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

	// Per-cycle scratch, reused across Schedule calls.
	byChunk                 [2]volume.ChunkMap[*chunkGroup] // H_I, H_B, indexed by Class; empty between walks
	groups                  [2][]*chunkGroup                // H_I, H_B's entries in chunk order
	groupSlab               []*chunkGroup
	usedGroups              int
	cached, nonCached, rest []*chunkGroup
	out                     []Assignment
}

// DefaultCycle is the ω used when none is specified: short enough that an
// interactive request never waits long for the next cycle at the paper's
// 33.33 fps target cadence (one request per 30 ms).
const DefaultCycle = 10 * units.Millisecond

// DefaultBatchWindow caps how many batch jobs one scheduling pass is shown —
// in the simulator always, in the live head when the QoS fair queue releases
// them; interactive jobs are always shown.
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

// chunkGroup is one entry of the H_I / H_B tables: the unassigned
// tasks within this cycle that need the same chunk, plus the sort keys
// Schedule precomputes so its orderings never call into the head tables
// from inside a comparator.
type chunkGroup struct {
	chunk volume.ChunkID
	size  units.Bytes
	tasks []*Task
	// on is Cache[c], the head's live residency set: "is c cached on node
	// k" is a bit test that sees placements committed earlier in the cycle.
	on nodeSet
	// est caches Estimate[c] for the non-cached interactive ordering;
	// replicas caches the predicted replica count for rarest-first batch.
	est      units.Duration
	replicas int
}

// newGroup takes a recycled group from the slab (growing it on first use).
func (s *LocalityScheduler) newGroup(c volume.ChunkID, size units.Bytes, on nodeSet) *chunkGroup {
	if s.usedGroups == len(s.groupSlab) {
		s.groupSlab = append(s.groupSlab, new(chunkGroup))
	}
	g := s.groupSlab[s.usedGroups]
	s.usedGroups++
	g.chunk = c
	g.size = size
	g.tasks = g.tasks[:0]
	g.on = on
	g.est = 0
	g.replicas = 0
	return g
}

// groupByChunk is lines 2–7: one walk over the queue buckets the unassigned
// tasks of each class by chunk, the groups of a class in chunk order for
// determinism. H_I and H_B are ChunkMaps, so a task costs a slice index
// rather than a hash; the walk reads each class's groups out of its map in
// chunk order and leaves the map empty, so no group pointer survives its
// cycle.
func (s *LocalityScheduler) groupByChunk(queue []*Job, head *HeadState) {
	s.usedGroups = 0
	for _, j := range queue {
		byChunk := &s.byChunk[j.Class]
		for i := range j.Tasks {
			t := &j.Tasks[i]
			if t.Assigned {
				continue
			}
			g, _ := byChunk.Get(t.Chunk)
			if g == nil {
				g = s.newGroup(t.Chunk, t.Size, head.residency(t.Chunk))
				byChunk.Set(t.Chunk, g)
			}
			g.tasks = append(g.tasks, t)
		}
	}
	for class := range s.groups {
		gs := s.groups[class][:0]
		s.byChunk[class].Range(func(_ volume.ChunkID, g *chunkGroup) bool {
			gs = append(gs, g)
			return true
		})
		s.groups[class] = gs
		s.byChunk[class].Clear()
	}
}

// Schedule implements Algorithm 1.
func (s *LocalityScheduler) Schedule(now units.Time, queue []*Job, head *HeadState) []Assignment {
	lambda := now.Add(s.cycle) // λ: the next scheduling time
	out := s.out[:0]
	assign := func(t *Task, k NodeID) {
		t.Assigned = true
		head.CommitAssign(t, k, now)
		out = append(out, Assignment{Task: t, Node: k})
	}

	// Lines 2–7: decompose queued jobs into per-chunk task groups.
	s.groupByChunk(queue, head)
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
	// earliest predicted completion for its chunk.
	placeWhole := func(g *chunkGroup) {
		k, ok := s.bestNode(now, g, head)
		if !ok {
			return // no node alive; engine will retry next cycle
		}
		for _, t := range g.tasks {
			assign(t, k)
		}
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
			if !s.DisableIdleGuard {
				eps := head.IdleThreshold(g.chunk, g.size, g.tasks[0].Job.GroupSize())
				if head.InteractiveIdle(sec, now) <= eps {
					continue
				}
			}
			assign(g.tasks[0], sec)
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
			for _, t := range g.tasks {
				if t.Assigned {
					continue
				}
				if !head.Available[k].Before(lambda) {
					break cachedBatch
				}
				assign(t, node)
			}
		}
	}

	// Lines 23–31: non-cached batch, rarest chunks first (fewest predicted
	// replicas), placed only on nodes idle of interactive work for ε.
	rest := s.rest[:0]
	for _, g := range hb {
		pending := g.tasks[:0]
		for _, t := range g.tasks {
			if !t.Assigned {
				pending = append(pending, t)
			}
		}
		g.tasks = pending
		if len(g.tasks) > 0 {
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
			if len(g.tasks) == 0 {
				gi++
				continue
			}
			if !s.DisableIdleGuard {
				eps := head.IdleThreshold(g.chunk, g.size, g.tasks[0].Job.GroupSize())
				if head.InteractiveIdle(node, now) <= eps {
					break // this node served interactive work too recently
				}
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
							head.Available[sec].Before(lambda) && s.idleOK(head, g, sec, now) {
							target = sec
						}
					}
				}
			}
			assign(g.tasks[0], target)
			g.tasks = g.tasks[1:]
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
		firstUnassigned := func(g *chunkGroup) *Task {
			for _, t := range g.tasks {
				if !t.Assigned {
					return t
				}
			}
			return nil
		}
		for k := 0; k < head.Nodes(); k++ {
			node := NodeID(k)
			if !head.Alive(node) || head.CoBusy(node) || head.Available[k].After(now) {
				continue
			}
			var pick *Task
			for _, g := range hb {
				if !g.on.has(node) {
					continue
				}
				if t := firstUnassigned(g); t != nil {
					pick = t
					break
				}
			}
			if pick == nil {
				for _, g := range hb {
					if t := firstUnassigned(g); t != nil {
						pick = t
						break
					}
				}
			}
			if pick == nil {
				break // no pending batch work anywhere
			}
			pick.Assigned = true
			head.CommitCoAssign(pick, node, now)
			out = append(out, Assignment{Task: pick, Node: node, CoScheduled: true})
		}
	}

	// Prefetch pass (§5.8): runs last, over whatever idle capacity the
	// demand passes left inside [now, λ).
	s.prefetches = s.prefetches[:0]
	if s.prefetch != nil {
		s.prefetches = append(s.prefetches, s.prefetch.Plan(now, lambda, head)...)
	}
	s.out = out
	return out
}

// idleOK reports whether node k satisfies the ε idle-time condition for
// placing a non-cached batch task of the group's chunk.
func (s *LocalityScheduler) idleOK(head *HeadState, g *chunkGroup, k NodeID, now units.Time) bool {
	if s.DisableIdleGuard {
		return true
	}
	eps := head.IdleThreshold(g.chunk, g.size, g.tasks[0].Job.GroupSize())
	return head.InteractiveIdle(k, now) > eps
}

// bestNode returns the alive node minimizing predicted completion time for
// the group's chunk: max(Available[k], now) + cost, where cost is the hit
// cost on nodes predicted to hold the chunk and Estimate[c] elsewhere. Both
// costs are the same on every node, so the group is priced once and the
// scan pays a bit test per node.
func (s *LocalityScheduler) bestNode(now units.Time, g *chunkGroup, head *HeadState) (NodeID, bool) {
	price := head.price(g.tasks[0], g.on)
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
