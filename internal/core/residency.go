package core

import (
	"fmt"
	"math/bits"

	"vizsched/internal/cache"
	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// This file is the per-chunk view of the Cache table (DESIGN.md §5.17):
// Algorithm 1 reads Cache[c] — which nodes hold chunk c — while the table is
// stored per node, so the residency index keeps the transposed view, a node
// bitset per chunk. It is derived state: never serialised, rebuilt by adopt,
// and kept coherent by a residency observer on each predicted cache, so
// code that mutates Caches[k] directly needs no knowledge of it.

// nodeSet is a bitset over node IDs. The nil set is empty.
type nodeSet []uint64

func (s nodeSet) has(k NodeID) bool {
	w := int(k) >> 6
	return w < len(s) && s[w]&(1<<(uint(k)&63)) != 0
}

func (s nodeSet) put(k NodeID, on bool) {
	if on {
		s[k>>6] |= 1 << (uint(k) & 63)
	} else {
		s[k>>6] &^= 1 << (uint(k) & 63)
	}
}

// countIn returns |s ∩ m|.
func (s nodeSet) countIn(m nodeSet) int {
	n := 0
	for i, w := range s {
		n += bits.OnesCount64(w & m[i])
	}
	return n
}

// indexResidency allocates the index and derives the up mask from health;
// adopt then fills in each node's cache.
func (h *HeadState) indexResidency() {
	h.where = make(map[volume.ChunkID]nodeSet)
	h.up = make(nodeSet, (len(h.health)+63)/64)
	for k, s := range h.health {
		h.up.put(NodeID(k), s == HealthUp)
	}
}

// residency returns chunk c's node set, creating the empty set on first
// sight. The slice is the index entry itself and is never reallocated, so a
// holder (a chunkGroup, for one cycle) sees later changes. Sets are cut from
// a slab, 64 to an allocation.
func (h *HeadState) residency(c volume.ChunkID) nodeSet {
	s, ok := h.where[c]
	if !ok {
		n := len(h.up)
		if len(h.setSlab) < n {
			h.setSlab = make([]uint64, 64*n)
		}
		s, h.setSlab = h.setSlab[:n:n], h.setSlab[n:]
		h.where[c] = s
	}
	return s
}

// adopt makes c node k's predicted cache — the only way Caches[k] is ever
// set — and brings the index in line: the replaced cache's residencies
// leave it, c's enter it, and c reports every later change itself.
func (h *HeadState) adopt(k NodeID, c *cache.LRU) {
	if old := h.Caches[k]; old != nil {
		old.Observe(nil)
		for _, id := range old.Resident() {
			h.where[id].put(k, false)
		}
	}
	h.Caches[k] = c
	for _, id := range c.Resident() {
		h.residency(id).put(k, true)
	}
	c.Observe(func(id volume.ChunkID, resident bool) { h.residency(id).put(k, resident) })
}

// setHealth moves node k to state s, keeping the up mask in step.
func (h *HeadState) setHealth(k NodeID, s Health) {
	h.health[k] = s
	h.up.put(k, s == HealthUp)
}

// Validate checks the derived state against its sources: the up mask
// against health, the residency index against a scan of Caches. An error
// is a bug in the code that keeps them coherent.
func (h *HeadState) Validate() error {
	resident, indexed := 0, 0
	for k, c := range h.Caches {
		if h.up.has(NodeID(k)) != (h.health[k] == HealthUp) {
			return fmt.Errorf("core: up mask says %v for node %d in state %v", h.up.has(NodeID(k)), k, h.health[k])
		}
		for _, id := range c.Resident() {
			if !h.where[id].has(NodeID(k)) {
				return fmt.Errorf("core: chunk %v resident on node %d but not in the residency index", id, k)
			}
			resident++
		}
	}
	for _, s := range h.where {
		indexed += s.countIn(s)
	}
	// Every cached chunk is indexed; equal totals make the two sets equal.
	if indexed != resident {
		return fmt.Errorf("core: residency index holds %d entries, the caches %d", indexed, resident)
	}
	return nil
}

// ExecPrice is PredictExec(t, ·) with the node-invariant work done once, so
// a scan over nodes pays a bit test per node instead of three hash probes
// and the cost model's arithmetic. Valid until the tables next change.
type ExecPrice struct {
	head      *HeadState
	task      *Task
	on        nodeSet
	hit, miss units.Duration
	// perNode marks a miss price that would come through estimateSrc. The
	// sharded control plane counts those calls (the dir_lookups/dir_hits
	// columns of the pinned shardsweep CSV), one per non-resident node
	// priced, so that case still asks per node; ROADMAP item 4 retires it.
	perNode bool
}

// PriceTask prices task t for a scan over candidate nodes.
func (h *HeadState) PriceTask(t *Task) ExecPrice { return h.price(t, h.where[t.Chunk]) }

func (h *HeadState) price(t *Task, on nodeSet) ExecPrice {
	group := t.Job.GroupSize()
	p := ExecPrice{head: h, task: t, on: on, hit: h.HitEstimate(t.Size, group)}
	if _, local := h.estimate[t.Chunk]; local || h.estimateSrc == nil {
		p.miss = h.Estimate(t.Chunk, t.Size, group)
	} else {
		p.perNode = true
	}
	return p
}

// On returns what PredictExec(t, k) would.
func (p *ExecPrice) On(k NodeID) units.Duration {
	switch {
	case p.on.has(k):
		return p.hit
	case p.perNode:
		return p.head.Estimate(p.task.Chunk, p.task.Size, p.task.Job.GroupSize())
	default:
		return p.miss
	}
}
