package cache

import (
	"fmt"

	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// Entry is one resident chunk in a cache export, carrying everything needed
// to rebuild the residency exactly: identity, size, the LFU frequency
// counter, and the pin count.
type Entry struct {
	ID   volume.ChunkID
	Size units.Bytes
	Freq int64
	Pins int
}

// Export returns the cache contents in recency order, most-recent first —
// the same deterministic order Resident uses — plus per-entry frequency and
// pin counts. Feeding the result to Restore on an empty cache of the same
// quota rebuilds an identical cache (Clone, through a serializable value).
func (s *Store) Export() []Entry {
	out := make([]Entry, 0, len(s.items))
	for el := s.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*storeEntry)
		out = append(out, Entry{ID: e.id, Size: e.size, Freq: e.freq, Pins: s.pins[e.id]})
	}
	return out
}

// Restore rebuilds the cache from an Export: entries (most-recent first)
// replace the current contents, and the cumulative stats counters are set
// to st. The random-eviction stream restarts from the seed, exactly as in
// Clone. Panics if an entry exceeds the quota — an export from a
// same-quota cache cannot.
func (s *Store) Restore(entries []Entry, st Stats) {
	if s.observe != nil {
		for id := range s.items {
			s.observe(id, false)
		}
	}
	s.order.Init()
	s.items = make(map[volume.ChunkID]*storeEntry, len(entries))
	s.pins = make(map[volume.ChunkID]int)
	s.used, s.pinnedBytes = 0, 0
	for _, ent := range entries {
		if ent.Size <= 0 {
			panic(fmt.Sprintf("cache: restore of non-positive size %v for %v", ent.Size, ent.ID))
		}
		e := &storeEntry{id: ent.ID, size: ent.Size, freq: ent.Freq}
		e.el = s.order.PushBack(e)
		s.admit(e)
		if ent.Pins > 0 {
			s.pins[ent.ID] = ent.Pins
			s.pinnedBytes += ent.Size
		}
	}
	if s.used > s.quota {
		panic(fmt.Sprintf("cache: restore overflows quota (%v > %v)", s.used, s.quota))
	}
	s.stats = st
}

// Export returns the cache contents most-recent first; see Store.Export.
func (c *LRU) Export() []Entry { return c.s.Export() }

// Restore rebuilds the cache from an Export; see Store.Restore.
func (c *LRU) Restore(entries []Entry, st Stats) { c.s.Restore(entries, st) }
