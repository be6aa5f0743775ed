package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// Table-driven coverage of the cache-admission guards around prefetch:
// InsertCold must admit at the cold end, refuse rather than evict a pinned
// chunk, and leave the cache untouched when it refuses.
func TestPrefetchInsertColdAdmission(t *testing.T) {
	type op struct {
		insert     volume.ChunkID // demand insert when size > 0
		insertSize units.Bytes
		pin        volume.ChunkID // pin when non-zero
	}
	pinned := func(ids ...volume.ChunkID) []volume.ChunkID { return ids }
	cases := []struct {
		name        string
		quota       units.Bytes
		setup       []op
		cold        volume.ChunkID
		coldSize    units.Bytes
		wantOK      bool
		wantEvicted []volume.ChunkID
		wantKept    []volume.ChunkID // must remain resident afterwards
	}{
		{
			name:  "fits without eviction",
			quota: 10,
			setup: []op{{insert: cid(1, 0), insertSize: 4}},
			cold:  cid(1, 1), coldSize: 4,
			wantOK:   true,
			wantKept: pinned(cid(1, 0), cid(1, 1)),
		},
		{
			name:  "evicts unpinned LRU victim at exactly-full quota",
			quota: 8,
			setup: []op{
				{insert: cid(1, 0), insertSize: 4},
				{insert: cid(1, 1), insertSize: 4},
			},
			cold: cid(1, 2), coldSize: 4,
			wantOK:      true,
			wantEvicted: pinned(cid(1, 0)),
			wantKept:    pinned(cid(1, 1), cid(1, 2)),
		},
		{
			name:  "skips pinned victim, evicts next-coldest",
			quota: 8,
			setup: []op{
				{insert: cid(1, 0), insertSize: 4},
				{insert: cid(1, 1), insertSize: 4},
				{pin: cid(1, 0)},
			},
			cold: cid(1, 2), coldSize: 4,
			wantOK:      true,
			wantEvicted: pinned(cid(1, 1)),
			wantKept:    pinned(cid(1, 0), cid(1, 2)),
		},
		{
			name:  "refuses when only pinned chunks could make room",
			quota: 8,
			setup: []op{
				{insert: cid(1, 0), insertSize: 4},
				{insert: cid(1, 1), insertSize: 4},
				{pin: cid(1, 0)},
				{pin: cid(1, 1)},
			},
			cold: cid(1, 2), coldSize: 4,
			wantOK:   false,
			wantKept: pinned(cid(1, 0), cid(1, 1)),
		},
		{
			name:  "refuses oversize without panicking",
			quota: 8,
			setup: []op{{insert: cid(1, 0), insertSize: 4}},
			cold:  cid(1, 2), coldSize: 9,
			wantOK:   false,
			wantKept: pinned(cid(1, 0)),
		},
		{
			name:  "already resident is a no-op success",
			quota: 8,
			setup: []op{
				{insert: cid(1, 0), insertSize: 4},
				{insert: cid(1, 1), insertSize: 4},
			},
			cold: cid(1, 0), coldSize: 4,
			wantOK:   true,
			wantKept: pinned(cid(1, 0), cid(1, 1)),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewLRU(tc.quota)
			for _, o := range tc.setup {
				if o.insertSize > 0 {
					c.Insert(o.insert, o.insertSize)
				}
				if (o.pin != volume.ChunkID{}) {
					if !c.Pin(o.pin) {
						t.Fatalf("Pin(%v) failed during setup", o.pin)
					}
				}
			}
			usedBefore := c.Used()
			evicted, ok := c.InsertCold(tc.cold, tc.coldSize)
			if ok != tc.wantOK {
				t.Fatalf("InsertCold ok = %v, want %v", ok, tc.wantOK)
			}
			if !ok && c.Used() != usedBefore {
				t.Errorf("refused InsertCold mutated the cache: used %v -> %v", usedBefore, c.Used())
			}
			if len(evicted) != len(tc.wantEvicted) {
				t.Fatalf("evicted %v, want %v", evicted, tc.wantEvicted)
			}
			for i := range evicted {
				if evicted[i] != tc.wantEvicted[i] {
					t.Fatalf("evicted %v, want %v", evicted, tc.wantEvicted)
				}
			}
			for _, id := range tc.wantKept {
				if !c.Contains(id) {
					t.Errorf("chunk %v missing after InsertCold", id)
				}
			}
		})
	}
}

// A cold insert lands at the cold end: it is the first LRU victim, and a
// demand insert racing it never loses the chunk a scheduled task pinned.
func TestPrefetchColdInsertIsFirstVictim(t *testing.T) {
	c := NewLRU(12)
	c.Insert(cid(1, 0), 4)
	c.Insert(cid(1, 1), 4)
	if _, ok := c.InsertCold(cid(2, 0), 4); !ok {
		t.Fatal("InsertCold failed with free space")
	}
	got := c.Resident()
	want := []volume.ChunkID{cid(1, 1), cid(1, 0), cid(2, 0)}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Resident = %v, want %v", got, want)
		}
	}
	// The racing demand insert evicts the cold prefetched chunk, not the
	// demand-resident ones.
	ev := c.Insert(cid(3, 0), 4)
	if len(ev) != 1 || ev[0] != cid(2, 0) {
		t.Fatalf("demand insert evicted %v, want the cold prefetched chunk", ev)
	}
}

// Pin bookkeeping across nesting, unpin, demand eviction, and removal.
func TestPrefetchPinLifecycle(t *testing.T) {
	c := NewLRU(8)
	if c.Pin(cid(1, 0)) {
		t.Error("pinned a non-resident chunk")
	}
	c.Insert(cid(1, 0), 4)
	c.Insert(cid(1, 1), 4)
	if !c.Pin(cid(1, 0)) || !c.Pin(cid(1, 0)) {
		t.Fatal("Pin failed on resident chunk")
	}
	c.Unpin(cid(1, 0))
	if !pinned(c, cid(1, 0)) {
		t.Error("nested pin released after one Unpin")
	}
	c.Unpin(cid(1, 0))
	if pinned(c, cid(1, 0)) {
		t.Error("chunk still pinned after matching Unpins")
	}
	// Demand eviction of a pinned chunk clears the pin (pins do not change
	// demand eviction choices).
	c.Pin(cid(1, 0))
	c.Touch(cid(1, 1))
	ev := c.Insert(cid(1, 2), 4)
	if len(ev) != 1 || ev[0] != cid(1, 0) {
		t.Fatalf("demand insert evicted %v, want the pinned LRU chunk", ev)
	}
	if pinned(c, cid(1, 0)) || c.pinnedBytes != 0 {
		t.Error("pin survived demand eviction")
	}
	c.Unpin(cid(1, 0)) // must be a safe no-op
}

// Counters: hits and misses accrue at Touch only; inserting after a counted
// miss does not double-count, and evictions accrue on both insert paths.
func TestPrefetchCacheStatsCounters(t *testing.T) {
	c := NewLRU(8)
	if c.Touch(cid(1, 0)) {
		t.Fatal("hit on empty cache")
	}
	c.Insert(cid(1, 0), 4)
	if !c.Touch(cid(1, 0)) {
		t.Fatal("miss on resident chunk")
	}
	c.Insert(cid(1, 1), 4)
	c.Insert(cid(1, 2), 4) // evicts one
	c.InsertCold(cid(1, 3), 4)
	c.InsertCold(cid(1, 2), 4) // already resident: no-op, counts nothing
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("Stats = %+v, want 1 hit / 1 miss", st)
	}
	if st.Evictions != 2 {
		t.Errorf("Evictions = %d, want 2 (one demand, one cold)", st.Evictions)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Errorf("HitRate = %v, want 0.5", got)
	}
	cl := c.Clone()
	if cl.Stats() != st {
		t.Errorf("Clone stats %+v != %+v", cl.Stats(), st)
	}
}

// Property: under any interleaving of demand inserts, cold inserts, pins,
// unpins, touches, and removes, (1) a pinned chunk is never evicted by
// InsertCold, (2) used bytes never exceed quota, and (3) pinned bytes always
// equal the sum of pinned resident sizes. Run under -race in CI with the
// prefetch job.
func TestPrefetchPinQuickProperty(t *testing.T) {
	f := func(seed int64, ops uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		quota := units.Bytes(rng.Intn(40) + 8)
		c := NewLRU(quota)
		sizes := make(map[volume.ChunkID]units.Bytes)
		sizeFor := func(id volume.ChunkID) units.Bytes {
			s, ok := sizes[id]
			if !ok {
				s = units.Bytes(rng.Int63n(int64(quota))) + 1
				sizes[id] = s
			}
			return s
		}
		for i := 0; i < int(ops)+16; i++ {
			id := cid(rng.Intn(3), rng.Intn(4))
			switch rng.Intn(5) {
			case 0:
				c.Insert(id, sizeFor(id))
			case 1:
				wasPinned := make(map[volume.ChunkID]bool)
				for _, r := range c.Resident() {
					wasPinned[r] = pinned(c, r)
				}
				evicted, ok := c.InsertCold(id, sizeFor(id))
				for _, ev := range evicted {
					if wasPinned[ev] {
						return false // (1) violated
					}
				}
				if !ok && len(evicted) > 0 {
					return false
				}
			case 2:
				c.Pin(id)
			case 3:
				c.Unpin(id)
			default:
				if rng.Intn(2) == 0 {
					c.Touch(id)
				} else {
					c.Remove(id)
				}
			}
			if c.Used() > quota {
				return false // (2) violated
			}
			var pinnedSum units.Bytes
			for _, r := range c.Resident() {
				if pinned(c, r) {
					pinnedSum += sizes[r]
				}
			}
			if pinnedSum != c.pinnedBytes {
				return false // (3) violated
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Resident order is the deterministic recency list for every policy — never
// map order — so snapshots and golden comparisons are reproducible.
func TestPrefetchResidentDeterministicOrder(t *testing.T) {
	for _, p := range []Policy{PolicyLRU, PolicyFIFO, PolicyRandom, PolicyLFU} {
		build := func() []volume.ChunkID {
			s := NewStore(p, 100, 42)
			for i := 0; i < 10; i++ {
				s.Insert(cid(i%3, i), 5)
			}
			s.Touch(cid(0, 0))
			s.InsertCold(cid(9, 9), 5)
			return s.Resident()
		}
		a, b := build(), build()
		if len(a) != len(b) {
			t.Fatalf("%v: lengths differ", p)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: Resident order not deterministic: %v vs %v", p, a, b)
			}
		}
	}
}

// pinned reports whether the chunk is resident and holds at least one pin.
func pinned(s *Store, id volume.ChunkID) bool {
	e, ok := s.items.Get(id)
	return ok && e.pins > 0
}
