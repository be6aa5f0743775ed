package core

import (
	"fmt"

	"vizsched/internal/cache"
	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// HeadState is the head node's view of the cluster: the three tables of
// §V-A (Available, Cache, Estimate) plus the per-node last-interactive
// timestamps that implement the idle-time threshold ε. The tables are
// *predictions*, updated eagerly as tasks are scheduled and corrected as
// TaskResults flow back (§V-B). Every scheduler — OURS and the baselines —
// reads and writes the same structure, so their bookkeeping costs are
// comparable, which Table III measures.
type HeadState struct {
	// Available[k] predicts when node R_k will have drained its queue.
	Available []units.Time
	// Caches[k] predicts node R_k's main-memory residency (the Cache table,
	// indexed the transposed way: per node rather than per chunk; the
	// residency index in residency.go is the per-chunk view Algorithm 1
	// uses). Mutate a cache freely, but replace one only through adopt.
	Caches []*cache.Store
	// where[c] is the set of nodes whose predicted cache holds chunk c —
	// Cache[c] as Algorithm 1 reads it — and up the set of HealthUp nodes;
	// both derived, see residency.go.
	where   volume.ChunkMap[nodeSet]
	up      nodeSet
	setSlab []uint64
	// lastInteractive[k] is the last time an interactive task was assigned
	// to R_k.
	lastInteractive []units.Time
	// estimate[c] is the latest observed miss execution time for chunk c;
	// absent entries fall back to the cost model ("via a test run", §V-B).
	// Only Correct writes here, which keeps every table mutation inside the
	// journaled operations the snapshot+journal recovery replays (§5.10).
	estimate volume.ChunkMap[units.Duration]
	// estimateSrc, when non-nil, is consulted on an estimate-table miss
	// before falling back to the cost model — the hook the multi-head
	// control plane (§5.11) uses to share Estimate[c] observations across
	// shards through the chunk directory. Function-valued, so it never
	// serializes: Dump/LoadTables ignore it, and a recovered head starts
	// with whatever source its owner re-installs. Nil (the default) keeps
	// Estimate byte-identical to the single-head behaviour.
	estimateSrc func(volume.ChunkID) (units.Duration, bool)
	// dir and warm hear the head's facts for the shard directory and the
	// prefetch layer. Attached once, like estimateSrc, and never serialized:
	// replay's tables have neither, so its rules run with no side effects.
	dir  DirectoryWriter
	warm PrefetchObserver
	// hitObs learns actual cached-task execution times per (size, group),
	// the symmetric correction to estimate: without it, a system whose real
	// costs differ from the model would mis-rank cached against non-cached
	// placements. It only ever holds a few keys — one per chunk size and
	// render-group size in the workload — so it is a slice scanned linearly.
	hitObs []hitObs

	// Model prices task executions for predictions.
	Model CostModel

	// health[k] is the node's position in the up → suspect → down state
	// machine (§VI-D). Schedulers only place work on HealthUp nodes; the
	// suspect state lets a head stop feeding a silent node before declaring
	// it dead and requeueing its tasks.
	health []Health

	// replicaK is the replication policy's target degree k (§5.6); 1 is the
	// single-home behaviour of the paper and disables home tracking.
	replicaK int
	// homes[c] is the policy-tracked replica home set for chunk c, primary
	// first, never longer than replicaK. Residency beyond the set (bestNode
	// load-balancing) is organic and untracked.
	homes volume.ChunkMap[[]NodeID]
	// pressure[k] is node k's placement-pressure score: the number of home
	// slots the policy has assigned to it. Secondary selection steers to
	// low-pressure nodes.
	pressure []int

	// coBusy[k] marks node k as hosting a co-scheduled fractional task
	// (§5.13); lazily allocated by CommitCoAssign, so runs without the
	// fracshare layer never touch it.
	coBusy []bool

	// prefetched tags residencies created by the prefetching layer (§5.8)
	// that no demand task has touched yet; the counters below settle its
	// entries into hits, hidden hits, or waste. Lazily allocated — nil until
	// the first landed warm, so prefetch-off runs never touch it.
	prefetched map[prefKey]struct{}
	prefHits   int64
	prefHidden int64
	prefWasted int64
}

// Health is a node's liveness state as seen by the head.
type Health int

// Health states. A node starts HealthUp; missed heartbeats demote it to
// HealthSuspect (no new work) and then HealthDown (tasks requeued, caches
// forgotten); a heartbeat resurrects a suspect, and a rejoin repairs a down
// node with a cold cache. HealthDraining is the voluntary exit lane (§5.12):
// the autoscaler parks a node there while its work migrates and its
// working set pre-warms elsewhere, then CompleteDrain retires it to
// HealthDown without any of the crash-path accounting.
const (
	HealthUp Health = iota
	HealthSuspect
	HealthDown
	HealthDraining
)

// String implements fmt.Stringer.
func (h Health) String() string {
	switch h {
	case HealthUp:
		return "up"
	case HealthSuspect:
		return "suspect"
	case HealthDown:
		return "down"
	case HealthDraining:
		return "draining"
	default:
		return fmt.Sprintf("health(%d)", int(h))
	}
}

// NewHeadState builds head-node tables for n nodes with the given per-node
// main-memory quota.
func NewHeadState(n int, quota units.Bytes, model CostModel) *HeadState {
	if n <= 0 {
		panic(fmt.Sprintf("core: non-positive node count %d", n))
	}
	h := &HeadState{
		Available:       make([]units.Time, n),
		Caches:          make([]*cache.Store, n),
		lastInteractive: make([]units.Time, n),
		Model:           model,
		health:          make([]Health, n),
		replicaK:        1,
		pressure:        make([]int, n),
	}
	h.indexResidency()
	for k := range h.Caches {
		h.adopt(NodeID(k), cache.NewLRU(quota))
		h.lastInteractive[k] = -1 << 62 // long before the epoch: ε starts satisfied
	}
	return h
}

// Nodes returns the cluster size p.
func (h *HeadState) Nodes() int { return len(h.Available) }

// Alive reports whether node k is usable: only HealthUp nodes receive work.
func (h *HeadState) Alive(k NodeID) bool { return h.health[k] == HealthUp }

// Health returns node k's liveness state.
func (h *HeadState) Health(k NodeID) Health { return h.health[k] }

// AnyIdle reports whether some alive node is predicted to have drained its
// queue by now — the back-pressure test of the arrival-triggered cycle
// (DESIGN.md §5.19). A node becoming available at exactly now counts: a task
// sent to it starts at once.
func (h *HeadState) AnyIdle(now units.Time) bool {
	for k, av := range h.Available {
		if av <= now && h.health[k] == HealthUp {
			return true
		}
	}
	return false
}

// MarkSuspect demotes an up node to suspect: it keeps its predicted caches
// (it may come back) but receives no new work. Down nodes stay down.
func (h *HeadState) MarkSuspect(k NodeID) {
	if h.health[k] == HealthUp {
		h.setHealth(k, HealthSuspect)
	}
}

// MarkUp clears a suspect node back to up — a heartbeat arrived after all.
// Down nodes must rejoin through MarkRepaired instead.
func (h *HeadState) MarkUp(k NodeID) {
	if h.health[k] == HealthSuspect {
		h.setHealth(k, HealthUp)
	}
}

// MarkFailed removes a node from scheduling consideration and forgets its
// predicted caches; MarkRepaired restores it (empty). With the replication
// layer enabled, the failed node's orphaned chunks are re-homed to their
// warmest surviving replica (or dropped for rarest-first re-seeding when
// none survives); the report says how much of the failure was absorbed
// warm. Disabled or untracked, the report is zero.
func (h *HeadState) MarkFailed(k NodeID) RehomeReport {
	if h.warm != nil {
		h.warm.FailNode(k)
	}
	h.retire(k)
	return h.rehomeFailed(k)
}

// retire takes node k out of service with a cold predicted cache — the end
// state a crash and a completed drain share — and out of the directory.
func (h *HeadState) retire(k NodeID) {
	h.setHealth(k, HealthDown)
	h.dropPrefetched(k, nil)
	h.CoDone(k)
	h.adopt(k, cache.NewLRU(h.Caches[k].Quota()))
	if h.dir != nil {
		h.dir.DropNode(k)
	}
}

// MarkRepaired returns a failed node to service with a cold cache.
func (h *HeadState) MarkRepaired(k NodeID, now units.Time) {
	h.setHealth(k, HealthUp)
	h.Available[k] = now
}

// MarkDraining starts a graceful drain of node k (§5.12): the node takes no
// new work (Alive is false) and its predicted residency stops counting
// toward CachedOn/ReplicaCount, but — unlike a failure — its caches and
// home bookkeeping survive until CompleteDrain, because the node is still
// up and finishing what it holds. Only an up node can start draining;
// suspect and down nodes go through the crash path instead.
func (h *HeadState) MarkDraining(k NodeID) bool {
	if h.health[k] != HealthUp {
		return false
	}
	h.setHealth(k, HealthDraining)
	return true
}

// Draining reports whether node k is mid-drain.
func (h *HeadState) Draining(k NodeID) bool { return h.health[k] == HealthDraining }

// CompleteDrain retires a draining node: HealthDown with a cold predicted
// cache, exactly like the end state of MarkFailed but with none of the
// crash-path side effects — DemoteHomes already moved the home sets, so
// nothing is re-homed here and nothing is left for the rarest-first pass to
// re-seed. The existing rejoin/repair path (MarkRepaired) brings the slot
// back into service later. The prefetch observer abandoned the node's warm
// when the drain began.
func (h *HeadState) CompleteDrain(k NodeID) { h.retire(k) }

// Estimate returns Estimate[c]: the expected miss execution time for a task
// on chunk c in a render group of the given size, falling back to the cost
// model until a miss has been observed. Reading never writes the table:
// every job renders its whole dataset, so pre-observation queries for a
// chunk always carry the same (size, group) and the fallback is as
// deterministic as a memoized entry — and a read-only Estimate keeps table
// mutations confined to the journaled operations recovery replays. A miss
// does strictly more work than a hit (it is a hit plus a load), so the
// estimate is floored just above the hit estimate — otherwise a fast
// observed load could make the scheduler prefer reloading over reusing
// forever.
func (h *HeadState) Estimate(c volume.ChunkID, size units.Bytes, group int) units.Duration {
	e, ok := h.estimate.Get(c)
	if !ok && h.estimateSrc != nil {
		// Cross-shard fallback (§5.11): another shard may have observed this
		// chunk already. Local observations always win; the directory only
		// fills the cold-start gap the model would otherwise cover.
		e, ok = h.estimateSrc(c)
	}
	if !ok {
		e = h.Model.MissExec(size, group)
	}
	if floor := h.HitEstimate(size, group) + units.Microsecond; e < floor {
		return floor
	}
	return e
}

// SetEstimateSource installs (or, with nil, removes) the cross-shard
// estimate fallback. Owners install it once at shard construction; the
// zero state — no source — is exactly the single-head behaviour.
func (h *HeadState) SetEstimateSource(src func(volume.ChunkID) (units.Duration, bool)) {
	h.estimateSrc = src
}

// DirectoryWriter is the shard directory's write side (§5.11), told of
// every completion the tables fold in and every node they lose.
type DirectoryWriter interface {
	Publish(tables *HeadState, res TaskResult)
	DropNode(k NodeID)
}

// PrefetchObserver hears each completion, landed warm, eviction, crash and
// waste the prefetch layer needs (§5.8), in order. prefetch.Controller has
// all but Wasted, which each plane adds for its own trace or stats.
type PrefetchObserver interface {
	Observe(action ActionID, c volume.ChunkID, now units.Time)
	Loaded(k NodeID, c volume.ChunkID)
	NoteEvicted(k NodeID, c volume.ChunkID)
	FailNode(k NodeID)
	Wasted(k NodeID, c volume.ChunkID)
}

// SetDirectoryWriter attaches a shard's directory; nil is a lone head.
func (h *HeadState) SetDirectoryWriter(w DirectoryWriter) { h.dir = w }

// SetPrefetchObserver attaches the prefetch layer; nil is none.
func (h *HeadState) SetPrefetchObserver(o PrefetchObserver) { h.warm = o }

// IdleThreshold returns ε = Estimate[c]/2, the minimum interactive-idle time
// a node must show before a non-cached batch task may be placed on it.
func (h *HeadState) IdleThreshold(c volume.ChunkID, size units.Bytes, group int) units.Duration {
	return h.Estimate(c, size, group) / 2
}

// InteractiveIdle returns how long node k has gone without an interactive
// assignment as of now.
func (h *HeadState) InteractiveIdle(k NodeID, now units.Time) units.Duration {
	return now.Sub(h.lastInteractive[k])
}

// CachedOn returns the nodes predicted to hold chunk c — the per-chunk view
// of the Cache table (Cache[c] in Algorithm 1). Failed nodes are excluded.
func (h *HeadState) CachedOn(c volume.ChunkID) []NodeID {
	var nodes []NodeID
	on, _ := h.where.Get(c)
	for k := range h.Caches {
		if on.has(NodeID(k)) && h.up.has(NodeID(k)) {
			nodes = append(nodes, NodeID(k))
		}
	}
	return nodes
}

// ReplicaCount returns len(CachedOn(c)) without allocating the node list —
// the form scheduler hot paths use, where only the predicted replica count
// matters (cached/non-cached splits and rarest-first ordering).
func (h *HeadState) ReplicaCount(c volume.ChunkID) int {
	on, _ := h.where.Get(c)
	return on.countIn(h.up)
}

// hitObs is one learned cached-execution time, for tasks of one chunk size
// in render groups of one size.
type hitObs struct {
	size  units.Bytes
	group int
	exec  units.Duration
}

// hitObsAt returns the index of the (size, group) observation, or -1.
func (h *HeadState) hitObsAt(size units.Bytes, group int) int {
	for i := range h.hitObs {
		if h.hitObs[i].size == size && h.hitObs[i].group == group {
			return i
		}
	}
	return -1
}

// HitEstimate returns the expected cached-task execution time, preferring
// observed times over the cost model.
func (h *HeadState) HitEstimate(size units.Bytes, group int) units.Duration {
	if i := h.hitObsAt(size, group); i >= 0 {
		return h.hitObs[i].exec
	}
	return h.Model.HitExec(size, group)
}

// PredictExec prices running task t on node k under the current tables:
// the (observed) hit cost when the chunk is predicted resident, Estimate[c]
// otherwise.
func (h *HeadState) PredictExec(t *Task, k NodeID) units.Duration {
	group := t.Job.GroupSize()
	if h.Caches[k].Contains(t.Chunk) {
		return h.HitEstimate(t.Size, group)
	}
	return h.Estimate(t.Chunk, t.Size, group)
}

// CommitAssign records an assignment in the tables: bumps the node's
// predicted available time, predicts the chunk load (with LRU eviction) on
// a miss, and stamps lastInteractive for interactive tasks. It returns the
// predicted execution time, which the engine threads through to Correct.
func (h *HeadState) CommitAssign(t *Task, k NodeID, now units.Time) units.Duration {
	exec := h.PredictExec(t, k)
	start := h.Available[k]
	if start < now {
		start = now
	}
	h.Available[k] = start.Add(exec)
	if !h.Caches[k].Contains(t.Chunk) {
		h.Caches[k].Insert(t.Chunk, t.Size)
	} else {
		h.Caches[k].Touch(t.Chunk)
	}
	h.trackPlacement(t.Chunk, k)
	if t.Job.Class == Interactive {
		h.lastInteractive[k] = now
	}
	t.PredictedExec = exec
	return exec
}

// Correct reconciles the tables with an actual task completion (§V-B):
// Estimate[c] tracks the latest observed miss time, the Available
// prediction absorbs the drift between predicted and actual execution, and
// the predicted cache drops whatever the node actually evicted, settling
// any of it that was an untouched warm as waste. The directory then
// publishes the completion and the prefetch observer trains on it.
func (h *HeadState) Correct(res TaskResult, now units.Time) {
	if res.Hit {
		size, group := res.Task.Size, res.Task.Job.GroupSize()
		if i := h.hitObsAt(size, group); i >= 0 {
			// Light smoothing keeps one outlier from flapping placements.
			h.hitObs[i].exec = (3*h.hitObs[i].exec + res.Exec) / 4
		} else {
			h.hitObs = append(h.hitObs, hitObs{size, group, res.Exec})
		}
	} else {
		h.estimate.Set(res.Task.Chunk, res.Exec)
	}
	drift := res.Exec - res.Predicted
	if drift != 0 {
		av := h.Available[res.Node].Add(drift)
		if av < now {
			av = now
		}
		h.Available[res.Node] = av
	}
	c := h.Caches[res.Node]
	for _, ev := range res.Evicted {
		c.Remove(ev)
		h.settleWaste(ev, res.Node)
	}
	// If the prediction said resident but the node actually missed, the
	// node has (re)loaded it now either way; make sure the table agrees.
	if !c.Contains(res.Task.Chunk) {
		c.Insert(res.Task.Chunk, res.Task.Size)
	}
	if h.dir != nil {
		h.dir.Publish(h, res)
	}
	if h.warm != nil {
		h.warm.Observe(res.Task.Job.Action, res.Task.Chunk, now)
	}
}
