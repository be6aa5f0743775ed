// Package cache provides the byte-quota chunk cache used in two places: as
// each rendering node's *actual* main-memory state, and as the head node's
// *predicted* per-node Cache table (paper §V-B). Keeping one implementation
// for both guarantees the prediction and the reality evict in the same order
// when fed the same access stream.
package cache

import (
	"fmt"
	"math/rand"

	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// Policy names an eviction strategy for Store.
type Policy int

// Eviction policies. PolicyLRU matches the paper's nodes ("the least
// recently used caches are released", §V-B); the others exist for the
// eviction ablation.
const (
	PolicyLRU Policy = iota
	PolicyFIFO
	PolicyRandom
	PolicyLFU
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyLRU:
		return "lru"
	case PolicyFIFO:
		return "fifo"
	case PolicyRandom:
		return "random"
	case PolicyLFU:
		return "lfu"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Stats is a cache's cumulative access accounting. Hits and misses are
// counted at Touch (the access point); inserts do not re-count the miss
// that triggered them.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// HitRate returns hits/(hits+misses), or 0 before any access.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Store is a byte-quota chunk cache with a pluggable eviction policy. The
// nodes and the head's prediction tables use it with PolicyLRU (NewLRU); the
// eviction ablation uses the others. It is not safe for concurrent use; each
// owner guards its own instance.
//
// Chunks may be pinned (Pin/Unpin) while a scheduled task depends on them:
// demand Insert ignores pins entirely — its eviction choices are identical
// with and without pins, keeping golden outputs stable — but InsertCold
// (the prefetch admission path) never evicts a pinned chunk.
//
// Entries are owned by the Store: one that leaves the cache goes to a free
// list and comes back as the next admitted chunk's entry, so a cache at
// capacity allocates nothing to turn its contents over (DESIGN.md §5.17).
type Store struct {
	policy Policy
	quota  units.Bytes
	used   units.Bytes
	seed   int64

	// ring is the sentinel of the recency ring, maintained for LRU (recency)
	// and FIFO (insertion): ring.next is the most recent or newest entry,
	// ring.prev the victim end. A Store must not be copied.
	ring  storeEntry
	items volume.ChunkMap[*storeEntry]
	// free lists dropped entries for reuse, linked through next.
	free *storeEntry

	// rng drives random eviction; the other policies draw nothing and keep
	// no stream (a source is some 5 KB, and a simulated cluster builds two
	// caches a node).
	rng *rand.Rand

	// pinned counts residents holding at least one pin and pinnedBytes is
	// their total size, maintained for InsertCold's feasibility check.
	pinned      int
	pinnedBytes units.Bytes

	stats Stats

	// observe, when set, is told of every residency change — a chunk
	// entering (true) or leaving (false) the cache, never a touch or a pin —
	// so an owner can keep a derived index coherent.
	observe func(id volume.ChunkID, resident bool)
}

type storeEntry struct {
	id         volume.ChunkID
	size       units.Bytes
	freq       int64
	pins       int
	prev, next *storeEntry
}

// NewStore returns an empty cache with the given policy and quota. Random
// eviction draws from the given seed for reproducibility.
func NewStore(policy Policy, quota units.Bytes, seed int64) *Store {
	if quota <= 0 {
		panic(fmt.Sprintf("cache: non-positive quota %v", quota))
	}
	s := &Store{policy: policy, quota: quota, seed: seed}
	s.ring.prev, s.ring.next = &s.ring, &s.ring
	s.reseed()
	return s
}

// NewLRU returns an empty least-recently-used cache with the given quota. A
// zero or negative quota panics: a cacheless node cannot render at all.
func NewLRU(quota units.Bytes) *Store { return NewStore(PolicyLRU, quota, 0) }

// reseed restarts the random-eviction stream from the seed.
func (s *Store) reseed() {
	if s.policy == PolicyRandom {
		s.rng = rand.New(rand.NewSource(s.seed))
	}
}

// Policy returns the configured eviction policy.
func (s *Store) Policy() Policy { return s.policy }

// Quota returns the configured byte limit.
func (s *Store) Quota() units.Bytes { return s.quota }

// Used returns the bytes currently resident.
func (s *Store) Used() units.Bytes { return s.used }

// Len returns the number of resident chunks.
func (s *Store) Len() int { return s.items.Len() }

// Stats returns the cumulative hit/miss/eviction counters.
func (s *Store) Stats() Stats { return s.stats }

// Observe installs (or, with nil, removes) the residency observer. The
// current contents are not replayed to it.
func (s *Store) Observe(fn func(id volume.ChunkID, resident bool)) { s.observe = fn }

// link puts e into the recency ring just after at.
func link(e, at *storeEntry) {
	e.prev, e.next = at, at.next
	at.next.prev = e
	at.next = e
}

// unlink takes e out of the recency ring.
func unlink(e *storeEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

// admit books a new entry for id, linked just after at, as resident.
func (s *Store) admit(id volume.ChunkID, size units.Bytes, freq int64, at *storeEntry) *storeEntry {
	e := s.free
	if e != nil {
		s.free = e.next
	} else {
		e = new(storeEntry)
	}
	*e = storeEntry{id: id, size: size, freq: freq}
	link(e, at)
	s.items.Set(id, e)
	s.used += size
	if s.observe != nil {
		s.observe(id, true)
	}
	return e
}

// Contains reports residency without recording an access.
func (s *Store) Contains(id volume.ChunkID) bool { return s.items.Has(id) }

// Touch records an access and reports whether the chunk was resident.
func (s *Store) Touch(id volume.ChunkID) bool {
	if !s.touch(id) {
		s.stats.Misses++
		return false
	}
	s.stats.Hits++
	return true
}

// touch is Touch without the hit/miss accounting, used by Insert so the
// miss that triggered an insert is not counted twice.
func (s *Store) touch(id volume.ChunkID) bool {
	e, ok := s.items.Get(id)
	if !ok {
		return false
	}
	e.freq++
	if s.policy == PolicyLRU && s.ring.next != e {
		unlink(e)
		link(e, &s.ring)
	}
	return true
}

// victim selects the entry to evict under the policy.
func (s *Store) victim() *storeEntry {
	switch s.policy {
	case PolicyLRU, PolicyFIFO:
		return s.ring.prev
	case PolicyRandom:
		e := s.ring.next
		for n := s.rng.Intn(s.items.Len()); n > 0; n-- {
			e = e.next
		}
		return e
	case PolicyLFU:
		var worst *storeEntry
		for e := s.ring.prev; e != &s.ring; e = e.prev {
			if worst == nil || e.freq < worst.freq {
				worst = e
			}
		}
		return worst
	default:
		panic("cache: unknown policy")
	}
}

// victimUnpinned selects the entry InsertCold evicts: the policy's choice
// restricted to unpinned residents. Callers must ensure at least one
// unpinned entry exists.
func (s *Store) victimUnpinned() *storeEntry {
	switch s.policy {
	case PolicyLRU, PolicyFIFO:
		for e := s.ring.prev; e != &s.ring; e = e.prev {
			if e.pins == 0 {
				return e
			}
		}
	case PolicyRandom:
		n := s.rng.Intn(s.items.Len() - s.pinned)
		for e := s.ring.next; e != &s.ring; e = e.next {
			if e.pins > 0 {
				continue
			}
			if n == 0 {
				return e
			}
			n--
		}
	case PolicyLFU:
		var worst *storeEntry
		for e := s.ring.prev; e != &s.ring; e = e.prev {
			if e.pins == 0 && (worst == nil || e.freq < worst.freq) {
				worst = e
			}
		}
		return worst
	}
	panic("cache: victimUnpinned with no unpinned entries")
}

// drop removes an entry from all bookkeeping (clearing its pins, if any)
// and puts it on the free list: the caller must not use it afterwards.
func (s *Store) drop(e *storeEntry) {
	unlink(e)
	s.items.Delete(e.id)
	s.used -= e.size
	if e.pins > 0 {
		s.pinned--
		s.pinnedBytes -= e.size
	}
	if s.observe != nil {
		s.observe(e.id, false)
	}
	*e = storeEntry{next: s.free}
	s.free = e
}

// Insert adds the chunk (or touches it if resident), evicting under the
// policy as needed, and returns the evicted IDs. Demand inserts ignore
// pins: a pinned chunk can be evicted here (the pin is cleared), so
// eviction behaviour is byte-identical whether or not pinning is in use.
func (s *Store) Insert(id volume.ChunkID, size units.Bytes) []volume.ChunkID {
	if size <= 0 {
		panic(fmt.Sprintf("cache: non-positive chunk size %v", size))
	}
	if size > s.quota {
		panic(fmt.Sprintf("cache: chunk %v (%v) exceeds quota %v", id, size, s.quota))
	}
	if s.touch(id) {
		return nil
	}
	var evicted []volume.ChunkID
	for s.used+size > s.quota {
		v := s.victim()
		evicted = append(evicted, v.id)
		s.drop(v)
		s.stats.Evictions++
	}
	s.admit(id, size, 1, &s.ring)
	return evicted
}

// InsertCold admits a chunk at the cold end of the cache — the prefetch
// admission path. Unlike Insert it is best-effort: it never evicts a
// pinned chunk, and reports ok=false (without mutating anything) when the
// chunk cannot fit after evicting every unpinned resident. A resident
// chunk is left where it is (no promotion) and reported ok=true. The
// admitted chunk starts with zero frequency so LFU also sees it as cold.
func (s *Store) InsertCold(id volume.ChunkID, size units.Bytes) (evicted []volume.ChunkID, ok bool) {
	if size <= 0 {
		panic(fmt.Sprintf("cache: non-positive chunk size %v", size))
	}
	if s.Contains(id) {
		return nil, true
	}
	if size > s.quota-s.pinnedBytes {
		return nil, false
	}
	for s.used+size > s.quota {
		v := s.victimUnpinned()
		evicted = append(evicted, v.id)
		s.drop(v)
		s.stats.Evictions++
	}
	s.admit(id, size, 0, s.ring.prev)
	return evicted, true
}

// Pin marks a resident chunk as depended on by a scheduled task, protecting
// it from InsertCold eviction. Pins nest (counted); a non-resident chunk
// cannot be pinned and Pin reports false.
func (s *Store) Pin(id volume.ChunkID) bool {
	e, ok := s.items.Get(id)
	if !ok {
		return false
	}
	if e.pins == 0 {
		s.pinned++
		s.pinnedBytes += e.size
	}
	e.pins++
	return true
}

// Unpin releases one pin on the chunk. It is a no-op if the chunk is not
// pinned (e.g. it was evicted by a demand insert, which clears all pins).
func (s *Store) Unpin(id volume.ChunkID) {
	e, ok := s.items.Get(id)
	if !ok || e.pins == 0 {
		return
	}
	if e.pins--; e.pins == 0 {
		s.pinned--
		s.pinnedBytes -= e.size
	}
}

// Remove drops the chunk if resident (clearing its pins) and reports
// whether it was.
func (s *Store) Remove(id volume.ChunkID) bool {
	e, ok := s.items.Get(id)
	if !ok {
		return false
	}
	s.drop(e)
	return true
}

// Resident returns resident chunk IDs, most-recent/newest first. The order
// is the deterministic recency/insertion ring (never map order), so
// snapshots and golden comparisons are reproducible.
func (s *Store) Resident() []volume.ChunkID {
	out := make([]volume.ChunkID, 0, s.items.Len())
	for e := s.ring.next; e != &s.ring; e = e.next {
		out = append(out, e.id)
	}
	return out
}

// Clone returns an independent copy with identical contents, order,
// frequencies, pins, and counters — and no residency observer: a clone's
// changes are not the original's. The random-eviction stream restarts
// from the original seed (exact for the deterministic policies, which is
// every use the head's prediction tables make of it).
func (s *Store) Clone() *Store {
	n := NewStore(s.policy, s.quota, s.seed)
	for e := s.ring.next; e != &s.ring; e = e.next {
		n.admit(e.id, e.size, e.freq, n.ring.prev).pins = e.pins
	}
	n.pinned, n.pinnedBytes = s.pinned, s.pinnedBytes
	n.stats = s.stats
	return n
}
