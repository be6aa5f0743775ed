// Package cache provides the byte-quota LRU chunk cache used in two places:
// as each rendering node's *actual* main-memory state, and as the head
// node's *predicted* per-node Cache table (paper §V-B). Keeping one
// implementation for both guarantees the prediction and the reality evict in
// the same order when fed the same access stream.
package cache

import (
	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// LRU is a least-recently-used cache of data chunks bounded by a byte quota.
// It is a thin wrapper over Store with PolicyLRU — one eviction
// implementation serves both the named LRU type and the policy ablation —
// kept as a distinct type for its Clone method and as the concrete type the
// head's prediction tables use. It is not safe for concurrent use; each
// owner guards its own instance.
type LRU struct {
	s *Store
}

// NewLRU returns an empty cache with the given quota. A zero or negative
// quota panics: a cacheless node cannot render at all.
func NewLRU(quota units.Bytes) *LRU {
	return &LRU{s: NewStore(PolicyLRU, quota, 0)}
}

// Quota returns the configured byte limit.
func (c *LRU) Quota() units.Bytes { return c.s.Quota() }

// Used returns the bytes currently resident.
func (c *LRU) Used() units.Bytes { return c.s.Used() }

// Len returns the number of resident chunks.
func (c *LRU) Len() int { return c.s.Len() }

// Stats returns the cumulative hit/miss/eviction counters.
func (c *LRU) Stats() Stats { return c.s.Stats() }

// Contains reports residency without updating recency.
func (c *LRU) Contains(id volume.ChunkID) bool { return c.s.Contains(id) }

// Touch marks the chunk most-recently-used and reports whether it was
// resident.
func (c *LRU) Touch(id volume.ChunkID) bool { return c.s.Touch(id) }

// Insert adds the chunk (or touches it if already resident), evicting
// least-recently-used chunks as needed. It returns the IDs evicted. A chunk
// larger than the whole quota panics: the decomposition policy must prevent
// that configuration.
func (c *LRU) Insert(id volume.ChunkID, size units.Bytes) []volume.ChunkID {
	return c.s.Insert(id, size)
}

// InsertCold admits the chunk at the least-recently-used end without
// evicting pinned chunks; see Store.InsertCold.
func (c *LRU) InsertCold(id volume.ChunkID, size units.Bytes) ([]volume.ChunkID, bool) {
	return c.s.InsertCold(id, size)
}

// Pin protects a resident chunk from InsertCold eviction; see Store.Pin.
func (c *LRU) Pin(id volume.ChunkID) bool { return c.s.Pin(id) }

// Unpin releases one pin on the chunk; see Store.Unpin.
func (c *LRU) Unpin(id volume.ChunkID) { c.s.Unpin(id) }

// Pinned reports whether the chunk currently holds at least one pin.
func (c *LRU) Pinned(id volume.ChunkID) bool { return c.s.Pinned(id) }

// PinnedBytes returns the total size of pinned residents.
func (c *LRU) PinnedBytes() units.Bytes { return c.s.PinnedBytes() }

// Remove drops the chunk if resident and reports whether it was.
func (c *LRU) Remove(id volume.ChunkID) bool { return c.s.Remove(id) }

// Resident returns the resident chunk IDs from most- to least-recently used.
func (c *LRU) Resident() []volume.ChunkID { return c.s.Resident() }

// Observe installs the residency observer; see Store.Observe.
func (c *LRU) Observe(fn func(id volume.ChunkID, resident bool)) { c.s.Observe(fn) }

// Clone returns an independent copy with identical contents and recency
// order, used when the head node seeds a what-if projection. A clone
// carries no observer: mutating it never reaches the original's owner.
func (c *LRU) Clone() *LRU {
	return &LRU{s: c.s.Clone()}
}
