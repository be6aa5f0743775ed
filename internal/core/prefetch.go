package core

import (
	"slices"

	"vizsched/internal/cache"
	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// This file is the scheduler-side half of the predictive prefetching layer
// (§5.8): the directive type a planner emits, the interfaces the engine and
// the live head use to wire a planner into a scheduler, and the head-state
// table that tracks which resident chunks exist only because of a prefetch
// (the Prefetched table) together with the accuracy counters.
//
// The planner runs at the *end* of Schedule, after every demand pass has
// committed its assignments, so prefetch work ranks strictly below cached
// batch and ε-eligible batch work by construction: it sees only the idle
// capacity demand left behind.

// PrefetchDirective asks the execution layer to warm one chunk on one node
// in the background. Size is the chunk's byte size (the cost the bandwidth
// governor already charged).
type PrefetchDirective struct {
	Node  NodeID
	Chunk volume.ChunkID
	Size  units.Bytes
}

// PrefetchPlanner emits ranked prefetch directives for the idle windows the
// demand schedule left open in [now, lambda). Implemented by
// prefetch.Controller.
type PrefetchPlanner interface {
	Plan(now, lambda units.Time, head *HeadState) []PrefetchDirective
}

// PrefetchSetter is implemented by schedulers that can host a prefetch
// planner (LocalityScheduler); the engine and the live head use it to wire
// the controller in, mirroring ReplicaSetter.
type PrefetchSetter interface {
	SetPrefetchPlanner(PrefetchPlanner)
}

// PrefetchSource exposes the directives the scheduler's planner produced in
// its latest Schedule call. Like the assignment slice, the returned slice
// is only valid until the next Schedule call.
type PrefetchSource interface {
	PlannedPrefetches() []PrefetchDirective
}

// prefKey identifies one prefetched residency: chunk c warmed on node k.
type prefKey struct {
	c volume.ChunkID
	k NodeID
}

// LandWarm folds a warm that landed on node k into the tables: the chunk
// enters the predicted cache at the cold end (never displacing a chunk
// pinned by demand bookkeeping), tagged so a later demand touch or eviction
// settles the accuracy counters, and the cache drops what the node reports
// the warm evicted.
func (h *HeadState) LandWarm(c volume.ChunkID, k NodeID, size units.Bytes, evicted []volume.ChunkID) {
	if h.warm != nil {
		h.warm.Loaded(k, c)
	}
	displaced, ok := h.Caches[k].InsertCold(c, size)
	for _, ev := range displaced {
		h.settleWaste(ev, k)
	}
	if ok {
		if h.prefetched == nil {
			h.prefetched = make(map[prefKey]struct{})
		}
		h.prefetched[prefKey{c, k}] = struct{}{}
		h.trackPlacement(c, k)
	}
	for _, ev := range evicted {
		h.Caches[k].Remove(ev)
		if h.warm != nil {
			h.warm.NoteEvicted(k, ev)
		}
		h.settleWaste(ev, k)
	}
}

// IsPrefetched reports whether chunk c is resident on node k due to a
// prefetch that no demand task has touched yet.
func (h *HeadState) IsPrefetched(c volume.ChunkID, k NodeID) bool {
	_, ok := h.prefetched[prefKey{c, k}]
	return ok
}

// DemandTouchPrefetched settles a demand hit against the Prefetched table:
// if the chunk was prefetch-resident on the node, the entry converts to an
// ordinary residency and counts as a prefetch hit. Reports whether it did.
func (h *HeadState) DemandTouchPrefetched(c volume.ChunkID, k NodeID) bool {
	key := prefKey{c, k}
	if _, ok := h.prefetched[key]; !ok {
		return false
	}
	delete(h.prefetched, key)
	h.prefHits++
	return true
}

// settleWaste settles an eviction of chunk c from node k against the
// Prefetched table: a prefetched chunk evicted before any demand touch was
// wasted bandwidth, and the prefetch observer hears of it.
func (h *HeadState) settleWaste(c volume.ChunkID, k NodeID) {
	key := prefKey{c, k}
	if _, ok := h.prefetched[key]; !ok {
		return
	}
	delete(h.prefetched, key)
	h.prefWasted++
	if h.warm != nil {
		h.warm.Wasted(k, c)
	}
}

// NotePrefetchHidden counts a hidden hit: a demand task arrived for a chunk
// whose prefetch load was still in flight and absorbed it, paying only the
// remaining load time.
func (h *HeadState) NotePrefetchHidden() { h.prefHidden++ }

// PrefetchAccuracy returns the accuracy counters: demand hits on prefetched
// chunks, hidden hits absorbed in flight, and prefetched chunks evicted
// unused.
func (h *HeadState) PrefetchAccuracy() (hits, hidden, wasted int64) {
	return h.prefHits, h.prefHidden, h.prefWasted
}

// dropPrefetched settles as wasted every prefetched residency of node k
// whose chunk keep does not hold (all of them with keep nil), in chunk
// order so that the observer hears them alike on every run.
func (h *HeadState) dropPrefetched(k NodeID, keep *cache.Store) {
	var gone []volume.ChunkID
	for key := range h.prefetched {
		if key.k == k && (keep == nil || !keep.Contains(key.c)) {
			gone = append(gone, key.c)
		}
	}
	slices.SortFunc(gone, volume.CompareChunks)
	for _, c := range gone {
		h.settleWaste(c, k)
	}
}
