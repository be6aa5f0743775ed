package core

import (
	"slices"

	"vizsched/internal/volume"
)

// This file is the replication policy layer (DESIGN.md §5.6): a configurable
// replication degree k under which the scheduler deliberately places a
// bounded fraction of batch work on a chunk's *secondary* node instead of
// always reinforcing the primary home, so every hot chunk ends up resident
// on k nodes without synthetic copy traffic — and a node crash no longer
// orphans a dataset, because its chunks re-home to their warmest surviving
// replica. Both the simulator and the live service call through HeadState,
// so they share one policy implementation.

// DefaultReplicas is the replication degree k the policy layer uses when
// enabled without an explicit k: two copies of every hot chunk, the minimum
// that removes the single-home failure mode.
const DefaultReplicas = 2

// ReplicaSetter is implemented by schedulers that participate in the
// replication policy layer; the engine and the live head use it to push the
// configured degree into the scheduling policy.
type ReplicaSetter interface {
	// SetReplicas sets the target replication degree k; values ≤ 1 select
	// the single-home behaviour of Algorithm 1.
	SetReplicas(k int)
}

// RehomeReport summarizes what one node failure did to the policy's home
// tables.
type RehomeReport struct {
	// Rehomed counts chunks that lost the failed node from their home set
	// but still have a home afterwards: either a surviving secondary was
	// promoted, or (for chunks whose only home died) the warmest surviving
	// replica adopted them.
	Rehomed int
	// Reseeded counts chunks left with no home and no surviving predicted
	// replica — they will be re-seeded from disk by the rarest-first batch
	// pass, which orders zero-replica chunks ahead of everything else.
	Reseeded int
}

// Fully reports whether the failure was absorbed entirely warm: at least
// one chunk moved and none must be re-read from disk.
func (r RehomeReport) Fully() bool { return r.Rehomed > 0 && r.Reseeded == 0 }

// SetReplication sets the policy's target replication degree k. Values ≤ 1
// disable the layer (single-home, the paper's behaviour); home/secondary
// tracking only runs while the layer is enabled. Call before scheduling
// starts.
func (h *HeadState) SetReplication(k int) {
	if k < 1 {
		k = 1
	}
	h.replicaK = k
}

// Home returns chunk c's primary home node, the first member of its home
// set; ok is false when the policy is disabled or the chunk has never been
// placed (or was orphaned and awaits re-seeding).
func (h *HeadState) Home(c volume.ChunkID) (NodeID, bool) {
	hs, _ := h.homes.Get(c)
	if len(hs) == 0 {
		return -1, false
	}
	return hs[0], true
}

// HomeSet returns a copy of chunk c's policy-tracked home set (primary
// first). Nil when untracked.
func (h *HeadState) HomeSet(c volume.ChunkID) []NodeID {
	hs, _ := h.homes.Get(c)
	return slices.Clone(hs)
}

// Pressure returns node k's placement-pressure score: how many chunk home
// slots the policy has assigned to it. Secondaries are steered toward
// low-pressure nodes so replicas spread instead of piling onto one hot
// spare.
func (h *HeadState) Pressure(k NodeID) int { return h.pressure[k] }

// trackPlacement maintains the home tables on a committed assignment: the
// first node a chunk is committed to becomes its primary home, later
// distinct nodes fill the set up to k. Beyond k the placement is organic
// (bestNode load-balancing) and deliberately not tracked — the policy never
// owns more than k replicas of a chunk.
func (h *HeadState) trackPlacement(c volume.ChunkID, k NodeID) {
	if h.replicaK <= 1 {
		return
	}
	hs, _ := h.homes.Get(c)
	if slices.Contains(hs, k) || len(hs) >= h.replicaK {
		return
	}
	h.homes.Set(c, append(hs, k))
	h.pressure[k]++
}

// SecondaryFor returns the node the policy wants chunk c's next replica on:
// first an already-chosen home member that is not currently predicted to
// hold the chunk (re-reinforce an evicted secondary), then — while the home
// set is below k — the HealthUp node with the lowest placement pressure that
// neither belongs to the set nor already holds the chunk (ties break to the
// lowest node ID, keeping runs deterministic). ok is false when the layer is
// disabled or no candidate exists.
func (h *HeadState) SecondaryFor(c volume.ChunkID) (NodeID, bool) {
	if h.replicaK <= 1 {
		return -1, false
	}
	hs, _ := h.homes.Get(c)
	on, _ := h.where.Get(c)
	for _, n := range hs {
		if h.health[n] == HealthUp && !on.has(n) {
			return n, true
		}
	}
	if len(hs) >= h.replicaK {
		return -1, false
	}
	best := NodeID(-1)
	for k := range h.pressure {
		n := NodeID(k)
		if h.health[n] != HealthUp || on.has(n) || slices.Contains(hs, n) {
			continue
		}
		if best < 0 || h.pressure[n] < h.pressure[best] {
			best = n
		}
	}
	return best, best >= 0
}

// rehomeFailed repairs the home tables after node k went down: k is removed
// from every home set, chunks whose entire set died adopt their warmest
// surviving replica as the new primary, and chunks with no surviving
// replica anywhere are dropped from the tables to be re-seeded rarest-first.
// Called from MarkFailed, which reports the outcome to the caller.
func (h *HeadState) rehomeFailed(k NodeID) RehomeReport {
	rep, orphans := h.removeHome(k)
	rep.Reseeded = len(orphans)
	return rep
}

// removeHome takes node k out of every home set. A chunk left with no home
// adopts its warmest surviving replica; one with no surviving replica either
// is dropped from the tables and returned, in chunk order. Each chunk's
// decision depends only on its own state (Available, caches, health), so
// the order of the walk cannot change the outcome.
func (h *HeadState) removeHome(k NodeID) (rep RehomeReport, orphans []volume.ChunkID) {
	if h.replicaK <= 1 {
		return rep, nil
	}
	h.homes.Range(func(c volume.ChunkID, hs []NodeID) bool {
		idx := slices.Index(hs, k)
		if idx < 0 {
			return true
		}
		hs = slices.Delete(hs, idx, idx+1)
		h.pressure[k]--
		if len(hs) == 0 {
			w, ok := h.warmestReplica(c)
			if !ok {
				h.homes.Delete(c)
				orphans = append(orphans, c)
				return true
			}
			hs = append(hs, w)
			h.pressure[w]++
		}
		h.homes.Set(c, hs)
		rep.Rehomed++
		return true
	})
	return rep, orphans
}

// DrainOrphans previews what a drain of node k would strand: the chunks
// whose only home member is k and which no HealthUp node is predicted to
// hold. These are exactly the chunks MarkFailed would count as Reseeded —
// the drain protocol instead pre-warms them onto survivors through the
// prefetch governor while k is still serving, so the eventual DemoteHomes
// finds a warm adopter for every one of them. Call with k already marked
// draining (so k's own residency no longer counts); the result is sorted
// for deterministic warm ordering. Read-only.
func (h *HeadState) DrainOrphans(k NodeID) []volume.ChunkID {
	if h.replicaK <= 1 {
		return nil
	}
	var orphans []volume.ChunkID
	h.homes.Range(func(c volume.ChunkID, hs []NodeID) bool {
		if len(hs) == 1 && hs[0] == k && h.ReplicaCount(c) == 0 {
			orphans = append(orphans, c)
		}
		return true
	})
	return orphans
}

// DemoteHomes removes a draining node k from every home set — the graceful
// counterpart of rehomeFailed, run when the drain completes. Chunks with a
// surviving home member keep it; chunks whose only home was k adopt their
// warmest surviving replica (which the drain protocol's pre-warm phase has
// been filling); chunks with no surviving replica anywhere are dropped from
// the tables and returned (sorted) so the caller can account them — they are
// *not* counted as Reseeded, because a drain must never feed the
// rarest-first crash-recovery pass. Call with k marked draining.
func (h *HeadState) DemoteHomes(k NodeID) (RehomeReport, []volume.ChunkID) {
	return h.removeHome(k)
}

// warmestReplica picks the surviving replica that can serve chunk c
// soonest: among HealthUp nodes predicted to hold it, the one whose queue
// drains earliest (lowest Available; ties break to the lowest node ID).
func (h *HeadState) warmestReplica(c volume.ChunkID) (NodeID, bool) {
	best := NodeID(-1)
	on, _ := h.where.Get(c)
	for k := range h.Caches {
		n := NodeID(k)
		if h.health[n] != HealthUp || !on.has(n) {
			continue
		}
		if best < 0 || h.Available[n] < h.Available[best] {
			best = n
		}
	}
	return best, best >= 0
}
