package core

import (
	"cmp"
	"fmt"
	"slices"

	"vizsched/internal/cache"
	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// This file is the serialization boundary of the head's dispatch state
// (DESIGN.md §5.10): TableDump is a deterministic, self-contained value
// capturing every HeadState table — the §V-A prediction tables, health,
// replica homes and pressure, and the prefetch accuracy state — in sorted,
// slice-only form so that identical states always encode to identical
// bytes. Dump/LoadTables are the snapshot half of the head's
// snapshot+journal recovery; the journal half replays ordinary
// CommitAssign/Correct/MarkFailed mutations on top of a loaded dump.

// EstimateEntry is one Estimate[c] row.
type EstimateEntry struct {
	Chunk volume.ChunkID
	Exec  units.Duration
}

// HitObsEntry is one learned cached-execution observation.
type HitObsEntry struct {
	Size  units.Bytes
	Group int
	Exec  units.Duration
}

// HomeEntry is one chunk's replica home set, primary first.
type HomeEntry struct {
	Chunk volume.ChunkID
	Homes []NodeID
}

// PrefEntry is one untouched prefetched residency.
type PrefEntry struct {
	Chunk volume.ChunkID
	Node  NodeID
}

// CacheDump is one node's predicted cache.
type CacheDump struct {
	Quota   units.Bytes
	Entries []cache.Entry
	Stats   cache.Stats
}

// TableDump is the serializable form of a HeadState. All map-backed tables
// are flattened into key-sorted slices, so two deep-equal HeadStates always
// produce deep-equal (and byte-identical, under any deterministic encoder)
// dumps.
type TableDump struct {
	Available       []units.Time
	LastInteractive []units.Time
	Health          []Health
	ReplicaK        int
	Pressure        []int
	Caches          []CacheDump
	Estimates       []EstimateEntry
	HitObs          []HitObsEntry
	Homes           []HomeEntry
	Prefetched      []PrefEntry
	PrefHits        int64
	PrefHidden      int64
	PrefWasted      int64
}

// Dump captures the complete table state. The receiver is not mutated.
func (h *HeadState) Dump() *TableDump {
	d := &TableDump{
		Available:       slices.Clone(h.Available),
		LastInteractive: slices.Clone(h.lastInteractive),
		Health:          slices.Clone(h.health),
		ReplicaK:        h.replicaK,
		Pressure:        slices.Clone(h.pressure),
		Caches:          make([]CacheDump, len(h.Caches)),
		PrefHits:        h.prefHits,
		PrefHidden:      h.prefHidden,
		PrefWasted:      h.prefWasted,
	}
	for k, c := range h.Caches {
		d.Caches[k] = CacheDump{Quota: c.Quota(), Entries: c.Export(), Stats: c.Stats()}
	}
	h.estimate.Range(func(c volume.ChunkID, e units.Duration) bool {
		d.Estimates = append(d.Estimates, EstimateEntry{Chunk: c, Exec: e})
		return true
	})
	for _, o := range h.hitObs {
		d.HitObs = append(d.HitObs, HitObsEntry{Size: o.size, Group: o.group, Exec: o.exec})
	}
	slices.SortFunc(d.HitObs, func(a, b HitObsEntry) int {
		if c := cmp.Compare(a.Size, b.Size); c != 0 {
			return c
		}
		return cmp.Compare(a.Group, b.Group)
	})
	h.homes.Range(func(c volume.ChunkID, hs []NodeID) bool {
		d.Homes = append(d.Homes, HomeEntry{Chunk: c, Homes: slices.Clone(hs)})
		return true
	})
	for key := range h.prefetched {
		d.Prefetched = append(d.Prefetched, PrefEntry{Chunk: key.c, Node: key.k})
	}
	slices.SortFunc(d.Prefetched, func(a, b PrefEntry) int {
		if c := volume.CompareChunks(a.Chunk, b.Chunk); c != 0 {
			return c
		}
		return cmp.Compare(a.Node, b.Node)
	})
	return d
}

// LoadTables reconstructs a HeadState from a dump. The model is supplied by
// the caller (cost models carry function-valued configuration that does not
// serialize); everything else comes from the dump. LoadTables(h.Dump())
// yields tables that behave identically to h under any mutation sequence.
func LoadTables(d *TableDump, model CostModel) *HeadState {
	n := len(d.Available)
	if n == 0 || len(d.Caches) != n || len(d.Health) != n || len(d.LastInteractive) != n || len(d.Pressure) != n {
		panic(fmt.Sprintf("core: inconsistent table dump (n=%d caches=%d health=%d lastInteractive=%d pressure=%d)",
			n, len(d.Caches), len(d.Health), len(d.LastInteractive), len(d.Pressure)))
	}
	h := &HeadState{
		Available:       slices.Clone(d.Available),
		Caches:          make([]*cache.Store, n),
		lastInteractive: slices.Clone(d.LastInteractive),
		Model:           model,
		health:          slices.Clone(d.Health),
		replicaK:        d.ReplicaK,
		pressure:        slices.Clone(d.Pressure),
		prefHits:        d.PrefHits,
		prefHidden:      d.PrefHidden,
		prefWasted:      d.PrefWasted,
	}
	h.indexResidency()
	for k, cd := range d.Caches {
		c := cache.NewLRU(cd.Quota)
		c.Restore(cd.Entries, cd.Stats)
		h.adopt(NodeID(k), c)
	}
	for _, e := range d.Estimates {
		h.estimate.Set(e.Chunk, e.Exec)
	}
	for _, e := range d.HitObs {
		h.hitObs = append(h.hitObs, hitObs{e.Size, e.Group, e.Exec})
	}
	for _, e := range d.Homes {
		h.homes.Set(e.Chunk, slices.Clone(e.Homes))
	}
	if len(d.Prefetched) > 0 {
		h.prefetched = make(map[prefKey]struct{}, len(d.Prefetched))
		for _, e := range d.Prefetched {
			h.prefetched[prefKey{e.Chunk, e.Node}] = struct{}{}
		}
	}
	return h
}

// ResyncCache reconciles node k's predicted cache with the worker's
// announced truth during a resync epoch: the announcement (most-recent
// first, as the worker's own Export reports it) replaces the prediction
// wholesale. The announcement comes off the wire, so it is taken as a
// worker's cache could be: a chunk named twice keeps its first (most
// recent) place, a sizeless entry is skipped, and admission stops at the
// first chunk that would overflow the head's quota. Prefetched-residency
// tags whose chunk did not survive on the worker settle as wasted — the
// warmed bytes are gone.
func (h *HeadState) ResyncCache(k NodeID, announced []cache.Entry) {
	quota := h.Caches[k].Quota()
	fresh := cache.NewLRU(quota)
	ents := make([]cache.Entry, 0, len(announced))
	var seen volume.ChunkMap[struct{}]
	var used units.Bytes
	for _, e := range announced {
		if e.Size <= 0 || seen.Has(e.ID) {
			continue
		}
		if used+e.Size > quota {
			break
		}
		seen.Set(e.ID, struct{}{})
		used += e.Size
		// Announced pins and frequencies are worker-side facts; the
		// prediction table only needs identity, size, and recency.
		ents = append(ents, cache.Entry{ID: e.ID, Size: e.Size, Freq: e.Freq})
	}
	fresh.Restore(ents, cache.Stats{})
	h.adopt(k, fresh)
	h.dropPrefetched(k, fresh)
}
