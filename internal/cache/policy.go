package cache

import (
	"container/list"
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

// Store is a byte-quota chunk cache with a pluggable eviction policy.
// LRU is a thin wrapper over a Store with PolicyLRU; the scheduler's hot
// paths and the eviction ablation share this one implementation.
//
// Chunks may be pinned (Pin/Unpin) while a scheduled task depends on them:
// demand Insert ignores pins entirely — its eviction choices are identical
// with and without pins, keeping golden outputs stable — but InsertCold
// (the prefetch admission path) never evicts a pinned chunk.
type Store struct {
	policy Policy
	quota  units.Bytes
	used   units.Bytes
	seed   int64

	// order is maintained for LRU (recency) and FIFO (insertion).
	order *list.List
	items map[volume.ChunkID]*storeEntry

	// rng drives random eviction.
	rng *rand.Rand

	// pins maps pinned chunks to their pin counts; pinnedBytes is the total
	// size of pinned residents, maintained for InsertCold's feasibility check.
	pins        map[volume.ChunkID]int
	pinnedBytes units.Bytes

	stats Stats

	// observe, when set, is told of every residency change — a chunk
	// entering (true) or leaving (false) the cache, never a touch or a pin —
	// so an owner can keep a derived index coherent.
	observe func(id volume.ChunkID, resident bool)
}

type storeEntry struct {
	id   volume.ChunkID
	size units.Bytes
	el   *list.Element
	freq int64
}

// NewStore returns an empty cache with the given policy and quota. Random
// eviction draws from the given seed for reproducibility.
func NewStore(policy Policy, quota units.Bytes, seed int64) *Store {
	if quota <= 0 {
		panic(fmt.Sprintf("cache: non-positive quota %v", quota))
	}
	return &Store{
		policy: policy,
		quota:  quota,
		seed:   seed,
		order:  list.New(),
		items:  make(map[volume.ChunkID]*storeEntry),
		rng:    rand.New(rand.NewSource(seed)),
		pins:   make(map[volume.ChunkID]int),
	}
}

// Policy returns the configured eviction policy.
func (s *Store) Policy() Policy { return s.policy }

// Quota returns the configured byte limit.
func (s *Store) Quota() units.Bytes { return s.quota }

// Used returns the bytes currently resident.
func (s *Store) Used() units.Bytes { return s.used }

// Len returns the number of resident chunks.
func (s *Store) Len() int { return len(s.items) }

// Stats returns the cumulative hit/miss/eviction counters.
func (s *Store) Stats() Stats { return s.stats }

// Observe installs (or, with nil, removes) the residency observer. The
// current contents are not replayed to it.
func (s *Store) Observe(fn func(id volume.ChunkID, resident bool)) { s.observe = fn }

// admit books a new entry (already linked into order) as resident.
func (s *Store) admit(e *storeEntry) {
	s.items[e.id] = e
	s.used += e.size
	if s.observe != nil {
		s.observe(e.id, true)
	}
}

// Contains reports residency without recording an access.
func (s *Store) Contains(id volume.ChunkID) bool {
	_, ok := s.items[id]
	return ok
}

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
	e, ok := s.items[id]
	if !ok {
		return false
	}
	e.freq++
	if s.policy == PolicyLRU {
		s.order.MoveToFront(e.el)
	}
	return true
}

// victim selects the entry to evict under the policy.
func (s *Store) victim() *storeEntry {
	switch s.policy {
	case PolicyLRU, PolicyFIFO:
		return s.order.Back().Value.(*storeEntry)
	case PolicyRandom:
		n := s.rng.Intn(len(s.items))
		el := s.order.Front()
		for i := 0; i < n; i++ {
			el = el.Next()
		}
		return el.Value.(*storeEntry)
	case PolicyLFU:
		var worst *storeEntry
		for el := s.order.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*storeEntry)
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
		for el := s.order.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*storeEntry)
			if _, pinned := s.pins[e.id]; !pinned {
				return e
			}
		}
	case PolicyRandom:
		free := len(s.items) - len(s.pins)
		n := s.rng.Intn(free)
		for el := s.order.Front(); el != nil; el = el.Next() {
			e := el.Value.(*storeEntry)
			if _, pinned := s.pins[e.id]; pinned {
				continue
			}
			if n == 0 {
				return e
			}
			n--
		}
	case PolicyLFU:
		var worst *storeEntry
		for el := s.order.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*storeEntry)
			if _, pinned := s.pins[e.id]; pinned {
				continue
			}
			if worst == nil || e.freq < worst.freq {
				worst = e
			}
		}
		return worst
	}
	panic("cache: victimUnpinned with no unpinned entries")
}

// drop removes an entry from all bookkeeping (clearing its pins, if any).
func (s *Store) drop(e *storeEntry) {
	s.order.Remove(e.el)
	delete(s.items, e.id)
	s.used -= e.size
	if _, pinned := s.pins[e.id]; pinned {
		delete(s.pins, e.id)
		s.pinnedBytes -= e.size
	}
	if s.observe != nil {
		s.observe(e.id, false)
	}
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
		s.drop(v)
		s.stats.Evictions++
		evicted = append(evicted, v.id)
	}
	e := &storeEntry{id: id, size: size, freq: 1}
	e.el = s.order.PushFront(e)
	s.admit(e)
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
		s.drop(v)
		s.stats.Evictions++
		evicted = append(evicted, v.id)
	}
	e := &storeEntry{id: id, size: size, freq: 0}
	e.el = s.order.PushBack(e)
	s.admit(e)
	return evicted, true
}

// Pin marks a resident chunk as depended on by a scheduled task, protecting
// it from InsertCold eviction. Pins nest (counted); a non-resident chunk
// cannot be pinned and Pin reports false.
func (s *Store) Pin(id volume.ChunkID) bool {
	e, ok := s.items[id]
	if !ok {
		return false
	}
	if s.pins[id] == 0 {
		s.pinnedBytes += e.size
	}
	s.pins[id]++
	return true
}

// Unpin releases one pin on the chunk. It is a no-op if the chunk is not
// pinned (e.g. it was evicted by a demand insert, which clears all pins).
func (s *Store) Unpin(id volume.ChunkID) {
	n, ok := s.pins[id]
	if !ok {
		return
	}
	if n <= 1 {
		delete(s.pins, id)
		if e, resident := s.items[id]; resident {
			s.pinnedBytes -= e.size
		}
		return
	}
	s.pins[id] = n - 1
}

// Pinned reports whether the chunk currently holds at least one pin.
func (s *Store) Pinned(id volume.ChunkID) bool {
	_, ok := s.pins[id]
	return ok
}

// PinnedBytes returns the total size of pinned residents.
func (s *Store) PinnedBytes() units.Bytes { return s.pinnedBytes }

// Remove drops the chunk if resident (clearing its pins) and reports
// whether it was.
func (s *Store) Remove(id volume.ChunkID) bool {
	e, ok := s.items[id]
	if !ok {
		return false
	}
	s.drop(e)
	return true
}

// Resident returns resident chunk IDs, most-recent/newest first. The order
// is the deterministic recency/insertion list (never map order), so
// snapshots and golden comparisons are reproducible; it matches
// LRU.Resident exactly because LRU is a wrapper over this Store.
func (s *Store) Resident() []volume.ChunkID {
	out := make([]volume.ChunkID, 0, len(s.items))
	for el := s.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*storeEntry).id)
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
	for el := s.order.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*storeEntry)
		ne := &storeEntry{id: e.id, size: e.size, freq: e.freq}
		ne.el = n.order.PushFront(ne)
		n.items[ne.id] = ne
		n.used += ne.size
	}
	for id, cnt := range s.pins {
		n.pins[id] = cnt
	}
	n.pinnedBytes = s.pinnedBytes
	n.stats = s.stats
	return n
}

// Chunks is the cache interface shared by LRU and Store, which the
// simulation engine's nodes program against.
type Chunks interface {
	Contains(volume.ChunkID) bool
	Touch(volume.ChunkID) bool
	Insert(volume.ChunkID, units.Bytes) []volume.ChunkID
	InsertCold(volume.ChunkID, units.Bytes) ([]volume.ChunkID, bool)
	Pin(volume.ChunkID) bool
	Unpin(volume.ChunkID)
	Remove(volume.ChunkID) bool
	Resident() []volume.ChunkID
	Used() units.Bytes
	Quota() units.Bytes
	Len() int
	Stats() Stats
}

// Compile-time interface checks.
var (
	_ Chunks = (*LRU)(nil)
	_ Chunks = (*Store)(nil)
)
