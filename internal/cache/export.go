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
	out := make([]Entry, 0, s.items.Len())
	for e := s.ring.next; e != &s.ring; e = e.next {
		out = append(out, Entry{ID: e.id, Size: e.size, Freq: e.freq, Pins: e.pins})
	}
	return out
}

// Restore rebuilds the cache from an Export: entries (most-recent first)
// replace the current contents, and the cumulative stats counters are set
// to st. The random-eviction stream restarts from the seed, exactly as in
// Clone. Panics if an entry has a non-positive size, names a chunk twice or
// overflows the quota — an export from a same-quota cache cannot.
func (s *Store) Restore(entries []Entry, st Stats) {
	for s.ring.next != &s.ring {
		s.drop(s.ring.next)
	}
	s.reseed()
	for _, ent := range entries {
		if ent.Size <= 0 {
			panic(fmt.Sprintf("cache: restore of non-positive size %v for %v", ent.Size, ent.ID))
		}
		if s.items.Has(ent.ID) {
			panic(fmt.Sprintf("cache: restore names %v twice", ent.ID))
		}
		s.admit(ent.ID, ent.Size, ent.Freq, s.ring.prev).pins = ent.Pins
		if ent.Pins > 0 {
			s.pinned++
			s.pinnedBytes += ent.Size
		}
	}
	if s.used > s.quota {
		panic(fmt.Sprintf("cache: restore overflows quota (%v > %v)", s.used, s.quota))
	}
	s.stats = st
}
