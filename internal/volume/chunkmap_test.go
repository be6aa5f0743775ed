package volume

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// chunkMapKey draws a key from every region a ChunkMap distinguishes: dense
// (both coordinates in [0, denseBound)), the dense range's edges, negative
// coordinates and coordinates far past the bound.
func chunkMapKey(rng *rand.Rand) ChunkID {
	coord := func() int {
		switch rng.Intn(8) {
		case 0:
			return -1 - rng.Intn(3)
		case 1:
			return denseBound - 2 + rng.Intn(4)
		case 2:
			return 1<<40 + rng.Intn(3)
		case 3:
			return math.MinInt + rng.Intn(2)
		default:
			return rng.Intn(70)
		}
	}
	return ChunkID{Dataset: DatasetID(coord()), Index: coord()}
}

// rangeOf collects what Range yields, in order.
func rangeOf[V any](m *ChunkMap[V]) (keys []ChunkID, vals []V) {
	m.Range(func(c ChunkID, v V) bool {
		keys = append(keys, c)
		vals = append(vals, v)
		return true
	})
	return keys, vals
}

// sameAsMap fails t unless m holds exactly ref's entries and Range yields
// them in CompareChunks order.
func sameAsMap(t *testing.T, step int, m *ChunkMap[int], ref map[ChunkID]int) {
	t.Helper()
	if m.Len() != len(ref) {
		t.Fatalf("step %d: Len = %d, map has %d", step, m.Len(), len(ref))
	}
	want := make([]ChunkID, 0, len(ref))
	for c := range ref {
		want = append(want, c)
	}
	slices.SortFunc(want, CompareChunks)
	keys, vals := rangeOf(m)
	if !slices.Equal(keys, want) {
		t.Fatalf("step %d: Range yields %v, want %v", step, keys, want)
	}
	for i, c := range keys {
		if vals[i] != ref[c] {
			t.Fatalf("step %d: Range gives %v = %d, map %d", step, c, vals[i], ref[c])
		}
	}
}

// TestChunkMapMatchesMap: random Set/Delete/Get/Len/Range/Clear over dense,
// negative and past-the-bound IDs agree with a Go map, and Range yields
// every entry — spilled ones merged in where they fall — in CompareChunks
// order.
func TestChunkMapMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var m ChunkMap[int]
		ref := map[ChunkID]int{}
		for step := 0; step < 2000; step++ {
			c := chunkMapKey(rng)
			switch op := rng.Intn(100); {
			case op < 50:
				m.Set(c, step)
				ref[c] = step
			case op < 75:
				m.Delete(c)
				delete(ref, c)
			case op < 99:
				v, ok := m.Get(c)
				rv, rok := ref[c]
				if v != rv || ok != rok || m.Has(c) != rok {
					t.Fatalf("seed %d step %d: Get(%v) = %d, %v; map %d, %v", seed, step, c, v, ok, rv, rok)
				}
			default:
				m.Clear()
				clear(ref)
			}
			if step%50 == 0 {
				sameAsMap(t, step, &m, ref)
			}
		}
		sameAsMap(t, -1, &m, ref)
	}
}

// TestChunkMapRangeOrder pins Range's order on a hand-made key set: a
// negative dataset first, then each dataset's negative, dense and
// past-the-bound indices, then the datasets past the bound.
func TestChunkMapRangeOrder(t *testing.T) {
	want := []ChunkID{
		{-3, 5}, {0, -1}, {0, 0}, {0, 63}, {0, 64}, {0, denseBound - 1}, {0, denseBound},
		{1, -7}, {1, 2}, {2, 1 << 40}, {denseBound, 0}, {1 << 40, -1},
	}
	var m ChunkMap[int]
	for _, i := range []int{7, 3, 10, 0, 11, 5, 8, 2, 9, 1, 6, 4} {
		m.Set(want[i], i)
	}
	if keys, _ := rangeOf(&m); !slices.Equal(keys, want) {
		t.Fatalf("Range yields %v, want %v", keys, want)
	}
}

// TestChunkMapRangeDeletes: f may delete the key it is given and any other;
// a deleted entry Range has not reached yet is not visited.
func TestChunkMapRangeDeletes(t *testing.T) {
	var m ChunkMap[int]
	for i := 0; i < 8; i++ {
		m.Set(ChunkID{1, i}, i)
		m.Set(ChunkID{1, -1 - i}, i)
	}
	var seen []ChunkID
	m.Range(func(c ChunkID, _ int) bool {
		seen = append(seen, c)
		m.Delete(c)
		m.Delete(ChunkID{c.Dataset, c.Index + 2})
		return true
	})
	want := []ChunkID{{1, -8}, {1, -7}, {1, -4}, {1, -3}, {1, 0}, {1, 1}, {1, 4}, {1, 5}}
	if !slices.Equal(seen, want) {
		t.Fatalf("Range visited %v, want %v", seen, want)
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", m.Len())
	}
}

// TestChunkMapHostileIDsStaySmall: an ID far out of the dense range costs a
// spill entry, not a row as long as its index.
func TestChunkMapHostileIDsStaySmall(t *testing.T) {
	var m ChunkMap[int]
	got := allocated(func() {
		for _, c := range []ChunkID{{0, 1 << 40}, {1 << 40, 0}, {-1, 0}, {0, math.MaxInt}, {denseBound, denseBound}} {
			m.Set(c, 1)
		}
	})
	if got > 4<<10 {
		t.Fatalf("five out-of-range IDs allocated %d bytes", got)
	}
	if len(m.rows) != 0 || m.Len() != 5 {
		t.Fatalf("out-of-range IDs made %d dense rows and %d entries, want 0 and 5", len(m.rows), m.Len())
	}
}

// FuzzChunkMap runs a script of operations, decoded from the input, on a
// ChunkMap and on a Go map and requires the same answers, with the
// ChunkMap's allocations bounded by the script's length: no ID can make it
// allocate more than one full row per operation.
func FuzzChunkMap(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 0, 0, 0, 1, 0, 2, 2, 0, 0, 1, 0, 2})
	f.Add([]byte{0, 0x0f, 0xff, 0x0f, 0xff, 0, 0xff, 0xff, 0x7f, 9, 3, 0, 0, 0, 0})
	f.Add([]byte{0, 0x7f, 1, 0x10, 0, 1, 0x7f, 1, 0x10, 0, 3, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		type op struct {
			kind byte
			c    ChunkID
		}
		// coord reads one coordinate: a signed 16-bit value, so negative,
		// dense and just-past-the-bound IDs are all a byte pair away, with
		// 0x7f in the high byte standing for an index near math.MaxInt.
		coord := func(hi, lo byte) int {
			if hi == 0x7f {
				return math.MaxInt - int(lo)
			}
			return int(int16(uint16(hi)<<8 | uint16(lo)))
		}
		var ops []op
		for ; len(data) >= 5; data = data[5:] {
			ops = append(ops, op{data[0] % 4, ChunkID{DatasetID(coord(data[1], data[2])), coord(data[3], data[4])}})
		}
		var m ChunkMap[int]
		type answer struct {
			v  int
			ok bool
		}
		answers := make([]answer, len(ops))
		var keys []ChunkID
		got := allocated(func() {
			for i, o := range ops {
				switch o.kind {
				case 0:
					m.Set(o.c, i)
				case 1:
					m.Delete(o.c)
				case 2:
					answers[i].v, answers[i].ok = m.Get(o.c)
				case 3:
					m.Clear()
				}
			}
			keys = make([]ChunkID, 0, m.Len())
			m.Range(func(c ChunkID, _ int) bool {
				keys = append(keys, c)
				return true
			})
		})
		// A row of denseBound ints and its bits, doubled for append's
		// growth, plus the row table's worst case, per operation.
		if limit := uint64(1<<20) + uint64(len(ops))*(2*denseBound*9+denseBound*64); got > limit {
			t.Fatalf("%d operations allocated %d bytes", len(ops), got)
		}
		ref := map[ChunkID]int{}
		for i, o := range ops {
			switch o.kind {
			case 0:
				ref[o.c] = i
			case 1:
				delete(ref, o.c)
			case 2:
				if v, ok := ref[o.c]; answers[i] != (answer{v, ok}) {
					t.Fatalf("op %d: Get(%v) = %+v, map %d, %v", i, o.c, answers[i], v, ok)
				}
			case 3:
				clear(ref)
			}
		}
		if !slices.IsSortedFunc(keys, CompareChunks) {
			t.Fatalf("Range order %v", keys)
		}
		sameAsMap(t, len(ops), &m, ref)
	})
}
