package volume

import (
	"cmp"
	"math/bits"
	"slices"
)

// CompareChunks is the canonical total order on chunk IDs (dataset, then
// index): the order of Algorithm 1's groups, of the predictor's ties, of
// ChunkMap.Range, and wherever chunk sets must become deterministic slices.
func CompareChunks(a, b ChunkID) int {
	if c := cmp.Compare(a.Dataset, b.Dataset); c != 0 {
		return c
	}
	return cmp.Compare(a.Index, b.Index)
}

// denseBound bounds the dense range of a ChunkMap: a chunk whose dataset ID
// and index both lie in [0, denseBound) is stored in a row slot, any other
// in the spill map. It is what keeps a hostile or corrupt ID from growing a
// row (or the row table) past a few thousand slots.
const denseBound = 1 << 12

// ChunkMap is a map from ChunkID to V that never hashes a dense key: rows[d]
// holds dataset d's chunks in a slice indexed by Chunk.Index, with a
// presence bit per slot, so a lookup is two bounds checks and a bit test.
// Keys outside the dense range — a negative dataset or index, or one of
// denseBound and above — spill to an ordinary Go map. The zero value is an
// empty map ready to use. A row holds slots up to the largest index stored
// in it, and a new row starts with room for as many as the widest row so
// far, since a library's datasets tend to split alike; rows keep their
// storage across Delete and Clear.
//
// Like a Go map it is not safe for concurrent use, and unlike one not even
// for concurrent readers: Range sorts the spilled keys in scratch the map
// owns.
type ChunkMap[V any] struct {
	rows  []chunkRow[V]
	spill map[ChunkID]V
	n     int
	// width is the most slots any row has had.
	width int
	// keys is Range's scratch for the spilled keys, in CompareChunks order.
	keys []ChunkID
}

// chunkRow is one dataset's dense slots: vals[i] is chunk i's value when
// presence bit i is set, and n counts the set bits. Bits 0–63 live in has0,
// so a row of up to 64 chunks is a single allocation; has holds the rest.
type chunkRow[V any] struct {
	vals []V
	has0 uint64
	has  []uint64
	n    int
}

func dense(c ChunkID) bool { return uint(c.Dataset) < denseBound && uint(c.Index) < denseBound }

// Len returns the number of entries.
func (m *ChunkMap[V]) Len() int { return m.n }

// Get returns c's value and whether c is present.
func (m *ChunkMap[V]) Get(c ChunkID) (V, bool) {
	if uint(c.Dataset) < uint(len(m.rows)) {
		r := &m.rows[c.Dataset]
		if i := uint(c.Index); i < uint(len(r.vals)) {
			if *r.word(i >> 6)&(1<<(i&63)) != 0 {
				return r.vals[i], true
			}
			var zero V
			return zero, false
		}
	}
	if !dense(c) {
		v, ok := m.spill[c]
		return v, ok
	}
	var zero V
	return zero, false
}

// Has reports whether c is present.
func (m *ChunkMap[V]) Has(c ChunkID) bool {
	_, ok := m.Get(c)
	return ok
}

// Set stores v under c.
func (m *ChunkMap[V]) Set(c ChunkID, v V) {
	if !dense(c) {
		if m.spill == nil {
			m.spill = make(map[ChunkID]V)
		}
		if _, ok := m.spill[c]; !ok {
			m.n++
		}
		m.spill[c] = v
		return
	}
	if d := int(c.Dataset); d >= len(m.rows) {
		m.rows = append(m.rows, make([]chunkRow[V], d+1-len(m.rows))...)
	}
	r := &m.rows[c.Dataset]
	i := c.Index
	if i >= len(r.vals) {
		if r.vals == nil {
			r.vals = make([]V, 0, max(i+1, m.width))
		}
		r.vals = append(r.vals, make([]V, i+1-len(r.vals))...)
		if w := i >> 6; w > len(r.has) {
			r.has = append(r.has, make([]uint64, w-len(r.has))...)
		}
		m.width = max(m.width, len(r.vals))
	}
	if w, b := r.word(uint(i)>>6), uint64(1)<<(i&63); *w&b == 0 {
		*w |= b
		r.n++
		m.n++
	}
	r.vals[i] = v
}

// Delete removes c, if present.
func (m *ChunkMap[V]) Delete(c ChunkID) {
	if uint(c.Dataset) < uint(len(m.rows)) {
		r := &m.rows[c.Dataset]
		if i := uint(c.Index); i < uint(len(r.vals)) {
			if w, b := r.word(i>>6), uint64(1)<<(i&63); *w&b != 0 {
				*w &^= b
				var zero V
				r.vals[i] = zero
				r.n--
				m.n--
			}
			return
		}
	}
	if !dense(c) {
		if _, ok := m.spill[c]; ok {
			delete(m.spill, c)
			m.n--
		}
	}
}

// Clear removes every entry, keeping the rows' storage for reuse.
func (m *ChunkMap[V]) Clear() {
	for d := range m.rows {
		if r := &m.rows[d]; r.n > 0 {
			clear(r.vals)
			r.has0 = 0
			clear(r.has)
			r.n = 0
		}
	}
	clear(m.spill)
	m.n = 0
}

// Range calls f for every entry in CompareChunks order until f returns
// false. f may Set or Delete the key it is given; an entry it deletes
// before Range reaches it is not visited, and one it adds may or may not
// be.
func (m *ChunkMap[V]) Range(f func(ChunkID, V) bool) {
	// The spilled keys, sorted, are merged in where they fall. The scratch
	// is taken for the walk, so a Range inside f cannot clobber it.
	keys := m.keys[:0]
	m.keys = nil
	for c := range m.spill {
		keys = append(keys, c)
	}
	slices.SortFunc(keys, CompareChunks)
	si, more := 0, true
	for d := 0; more && d < len(m.rows); d++ {
		if m.rows[d].n == 0 {
			continue
		}
		for w := uint(0); more && w <= uint(len(m.rows[d].has)); w++ {
			for word := *m.rows[d].word(w); more && word != 0; word &= word - 1 {
				b := bits.TrailingZeros64(word)
				if *m.rows[d].word(w)&(1<<b) == 0 {
					continue // deleted by f since the word was read
				}
				c := ChunkID{Dataset: DatasetID(d), Index: int(w<<6) + b}
				for ; more && si < len(keys) && CompareChunks(keys[si], c) < 0; si++ {
					more = m.rangeSpilled(keys[si], f)
				}
				more = more && f(c, m.rows[d].vals[c.Index])
			}
		}
	}
	for ; more && si < len(keys); si++ {
		more = m.rangeSpilled(keys[si], f)
	}
	m.keys = keys[:0]
}

// word returns presence word w, which holds the bits of slots 64w to
// 64w+63.
func (r *chunkRow[V]) word(w uint) *uint64 {
	if w == 0 {
		return &r.has0
	}
	return &r.has[w-1]
}

// rangeSpilled calls f on spilled key c unless f has deleted it since
// Range listed it, and reports whether to go on.
func (m *ChunkMap[V]) rangeSpilled(c ChunkID, f func(ChunkID, V) bool) bool {
	v, ok := m.spill[c]
	return !ok || f(c, v)
}
