package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"vizsched/internal/units"
	"vizsched/internal/volume"
)

func allPolicies() []Policy {
	return []Policy{PolicyLRU, PolicyFIFO, PolicyRandom, PolicyLFU}
}

func TestPolicyString(t *testing.T) {
	want := map[Policy]string{PolicyLRU: "lru", PolicyFIFO: "fifo", PolicyRandom: "random", PolicyLFU: "lfu"}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q", p, p.String())
		}
	}
	if Policy(99).String() == "" {
		t.Error("unknown policy String empty")
	}
}

func TestStoreBasicOpsAllPolicies(t *testing.T) {
	for _, p := range allPolicies() {
		s := NewStore(p, 10, 1)
		if ev := s.Insert(cid(1, 0), 4); ev != nil {
			t.Errorf("%v: unexpected eviction", p)
		}
		if !s.Contains(cid(1, 0)) || !s.Touch(cid(1, 0)) {
			t.Errorf("%v: residency broken", p)
		}
		if s.Used() != 4 || s.Len() != 1 {
			t.Errorf("%v: accounting broken", p)
		}
		if !s.Remove(cid(1, 0)) || s.Remove(cid(1, 0)) {
			t.Errorf("%v: Remove broken", p)
		}
	}
}

func TestStoreLRUEvictsLeastRecent(t *testing.T) {
	s := NewStore(PolicyLRU, 8, 1)
	s.Insert(cid(1, 0), 4)
	s.Insert(cid(1, 1), 4)
	s.Touch(cid(1, 0))
	ev := s.Insert(cid(1, 2), 4)
	if len(ev) != 1 || ev[0] != cid(1, 1) {
		t.Errorf("LRU evicted %v", ev)
	}
}

func TestStoreFIFOIgnoresTouch(t *testing.T) {
	s := NewStore(PolicyFIFO, 8, 1)
	s.Insert(cid(1, 0), 4)
	s.Insert(cid(1, 1), 4)
	// Touching the oldest does not save it under FIFO.
	s.Touch(cid(1, 0))
	ev := s.Insert(cid(1, 2), 4)
	if len(ev) != 1 || ev[0] != cid(1, 0) {
		t.Errorf("FIFO evicted %v, want the oldest insert", ev)
	}
}

func TestStoreLFUEvictsColdest(t *testing.T) {
	s := NewStore(PolicyLFU, 8, 1)
	s.Insert(cid(1, 0), 4)
	s.Insert(cid(1, 1), 4)
	for i := 0; i < 5; i++ {
		s.Touch(cid(1, 1))
	}
	ev := s.Insert(cid(1, 2), 4)
	if len(ev) != 1 || ev[0] != cid(1, 0) {
		t.Errorf("LFU evicted %v, want the cold chunk", ev)
	}
}

func TestStoreRandomDeterministicPerSeed(t *testing.T) {
	run := func() []volume.ChunkID {
		s := NewStore(PolicyRandom, 8, 42)
		var ev []volume.ChunkID
		for i := 0; i < 10; i++ {
			ev = append(ev, s.Insert(cid(1, i), 4)...)
		}
		return ev
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("random policy not reproducible")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("random policy diverged across identical seeds")
		}
	}
}

func TestStorePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero quota": func() { NewStore(PolicyLRU, 0, 1) },
		"oversize":   func() { NewStore(PolicyLRU, 4, 1).Insert(cid(1, 0), 5) },
		"zero size":  func() { NewStore(PolicyLRU, 4, 1).Insert(cid(1, 0), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: under every policy, used bytes stay within quota and equal the
// sum of resident sizes.
func TestQuickStoreInvariants(t *testing.T) {
	f := func(seed int64, ops uint8, policyRaw uint8) bool {
		policy := allPolicies()[int(policyRaw)%4]
		rng := rand.New(rand.NewSource(seed))
		quota := units.Bytes(rng.Intn(40) + 8)
		s := NewStore(policy, quota, seed)
		sizes := map[volume.ChunkID]units.Bytes{}
		for i := 0; i < int(ops); i++ {
			id := cid(rng.Intn(3), rng.Intn(6))
			switch rng.Intn(3) {
			case 0:
				size, had := sizes[id]
				if !had {
					size = units.Bytes(rng.Int63n(int64(quota))) + 1
					sizes[id] = size
				}
				s.Insert(id, size)
			case 1:
				s.Touch(id)
			default:
				s.Remove(id)
			}
			if s.Used() > quota {
				return false
			}
			var sum units.Bytes
			for _, r := range s.Resident() {
				sum += sizes[r]
			}
			if sum != s.Used() || len(s.Resident()) != s.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// NewLRU must behave identically to a Store built with PolicyLRU.
func TestQuickStoreLRUMatchesLRU(t *testing.T) {
	f := func(seed int64, ops uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		quota := units.Bytes(rng.Intn(30) + 8)
		a := NewLRU(quota)
		b := NewStore(PolicyLRU, quota, 0)
		sizes := map[volume.ChunkID]units.Bytes{}
		for i := 0; i < int(ops); i++ {
			id := cid(0, rng.Intn(6))
			switch rng.Intn(3) {
			case 0:
				size, had := sizes[id]
				if !had {
					size = units.Bytes(rng.Int63n(int64(quota))) + 1
					sizes[id] = size
				}
				evA := a.Insert(id, size)
				evB := b.Insert(id, size)
				if len(evA) != len(evB) {
					return false
				}
				for j := range evA {
					if evA[j] != evB[j] {
						return false
					}
				}
			case 1:
				if a.Touch(id) != b.Touch(id) {
					return false
				}
			default:
				if a.Remove(id) != b.Remove(id) {
					return false
				}
			}
		}
		ra, rb := a.Resident(), b.Resident()
		if len(ra) != len(rb) {
			return false
		}
		for i := range ra {
			if ra[i] != rb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestStoreSteadyStateAllocs: a Store at capacity, under every policy, turns
// its contents over without allocating — a touch, a residency test, a pin
// and its release, a removal and the re-insert that refills the slot cost
// nothing, and an evicting Insert allocates only the slice it returns. The
// head's prediction tables and every simulated node run these on each task.
func TestStoreSteadyStateAllocs(t *testing.T) {
	for _, p := range allPolicies() {
		s := NewStore(p, 8, 1)
		// Sixteen chunks over two datasets cycle through eight slots, and
		// insert skips to the next one not resident, so it always evicts;
		// two laps grow every row.
		next := 0
		insert := func() {
			for s.Contains(cid(next%2, next%16)) {
				next++
			}
			s.Insert(cid(next%2, next%16), 1)
		}
		for i := 0; i < 32; i++ {
			insert()
		}
		if s.Len() != 8 {
			t.Fatalf("%v: %d residents, want the store full at 8", p, s.Len())
		}
		id := s.Resident()[3]
		ops := map[string]func(){
			"Touch":         func() { s.Touch(id) },
			"Contains":      func() { s.Contains(id) },
			"Pin+Unpin":     func() { s.Pin(id); s.Unpin(id) },
			"Remove+Insert": func() { s.Remove(id); s.Insert(id, 1) },
		}
		for name, op := range ops {
			if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
				t.Errorf("%v: %s at capacity allocates %v times, want 0", p, name, allocs)
			}
		}
		if allocs := testing.AllocsPerRun(100, insert); allocs != 1 {
			t.Errorf("%v: an evicting Insert allocates %v times, want 1 (its evicted slice)", p, allocs)
		}
	}
}

// TestStoreRestoreRefusesDuplicates: an entry list naming one chunk twice
// would leave the ring and the table disagreeing and the bytes counted
// twice, so Restore panics on it rather than corrupting the cache.
func TestStoreRestoreRefusesDuplicates(t *testing.T) {
	s := NewStore(PolicyLRU, 8, 1)
	defer func() {
		if recover() == nil {
			t.Fatalf("Restore accepted a duplicate: Len %d, Used %v, Resident %v", s.Len(), s.Used(), s.Resident())
		}
	}()
	s.Restore([]Entry{{ID: cid(1, 0), Size: 2}, {ID: cid(1, 1), Size: 2}, {ID: cid(1, 0), Size: 2}}, Stats{})
}
