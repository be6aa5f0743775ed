package prefetch

import (
	"cmp"
	"math"
	"slices"

	"vizsched/internal/core"
	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// delta is the step between two consecutive chunks in an action's
// footprint stream. Dataset and index move independently: an interactive
// orbit walks indexes within one dataset (ds=0), a time-series sweep steps
// datasets (ds=+1), and the Markov table learns whichever mixture the
// workload exhibits.
type delta struct {
	ds  int
	idx int
}

// trans2Key conditions a transition on the last two deltas (order 2);
// older first.
type trans2Key struct {
	d2, d1 delta
}

// dist is one transition table row: counts per next-delta.
type dist struct {
	total  int64
	counts map[delta]int64
}

func (d *dist) bump(next delta) {
	if d.counts == nil {
		d.counts = make(map[delta]int64)
	}
	d.counts[next]++
	d.total++
}

// top2 returns the row's n ≤ 2 most likely next deltas, ties broken toward
// the smaller delta so identical tables always rank identically.
func (d *dist) top2() (best [2]delta, n int) {
	for k := range d.counts {
		if n < 2 {
			best[n], n = k, n+1
		} else if d.ahead(k, best[1]) {
			best[1] = k
		}
		if n == 2 && d.ahead(best[1], best[0]) {
			best[0], best[1] = best[1], best[0]
		}
	}
	return best, n
}

// ahead reports whether delta a ranks before b: the larger count first,
// then the smaller delta.
func (d *dist) ahead(a, b delta) bool {
	if ca, cb := d.counts[a], d.counts[b]; ca != cb {
		return ca > cb
	}
	if a.ds != b.ds {
		return a.ds < b.ds
	}
	return a.idx < b.idx
}

// stream is one action's footprint state: the last chunk seen and the last
// two deltas, enough to key both Markov orders.
type stream struct {
	action     core.ActionID
	last       volume.ChunkID
	d1, d2     delta
	have       int // chunks observed, saturating at 3
	seen       units.Time
	prev, next *stream // the predictor's stream list, ordered by seen
}

// emaEntry is one chunk's decayed access frequency, decayed lazily at
// read/write time so idle chunks cost nothing.
type emaEntry struct {
	chunk volume.ChunkID
	val   float64
	at    units.Time
	mark  int32 // 1 + its slot in Candidates' Markov set, valid while the slot holds chunk
}

// Candidate is one ranked prefetch suggestion.
type Candidate struct {
	Chunk volume.ChunkID
	Score float64
}

// Predictor learns the workload's chunk-access structure online and emits
// ranked candidates. It is deterministic: identical observation sequences
// produce identical candidate rankings (every map walk feeds a total order).
// Not safe for concurrent use; its owner (engine or head dispatcher)
// serializes access.
type Predictor struct {
	cfg     Config
	t1      map[delta]*dist
	t2      map[trans2Key]*dist
	streams map[core.ActionID]*stream
	ring    stream // sentinel of the stream list: ring.next oldest, ring.prev newest
	freqs   []emaEntry
	index   volume.ChunkMap[int32] // chunk → its entry in freqs

	decayDt     units.Duration // decayTo's memo: one pass's entries mostly share dt
	decayFactor float64

	// Candidates' scratch, refilled on every call.
	live   []*stream
	marked []Candidate
	out    []Candidate
}

// NewPredictor builds an empty predictor; nil selects all defaults.
func NewPredictor(cfg *Config) *Predictor {
	c := Config{}
	if cfg != nil {
		c = *cfg
	}
	p := &Predictor{
		cfg:     c.withDefaults(),
		t1:      make(map[delta]*dist),
		t2:      make(map[trans2Key]*dist),
		streams: make(map[core.ActionID]*stream),
	}
	p.ring.prev, p.ring.next = &p.ring, &p.ring
	return p
}

// decayTo folds the exponential decay since the entry's last update.
func (p *Predictor) decayTo(e *emaEntry, now units.Time) {
	if dt := now.Sub(e.at); dt > 0 {
		if dt != p.decayDt {
			p.decayDt, p.decayFactor = dt, math.Exp2(-dt.Seconds()/p.cfg.HalfLife.Seconds())
		}
		e.val *= p.decayFactor
		e.at = now
	}
}

// decay ages every prior entry to now and returns the largest value.
func (p *Predictor) decay(now units.Time) float64 {
	maxVal := 0.0
	for i := range p.freqs {
		e := &p.freqs[i]
		p.decayTo(e, now)
		if e.val > maxVal {
			maxVal = e.val
		}
	}
	return maxVal
}

// relink moves st behind every stream seen no later than it: to the back of
// the list, one step away, when Observe is called in completion order.
func (p *Predictor) relink(st *stream) {
	if st.next != nil {
		st.prev.next, st.next.prev = st.next, st.prev
	}
	at := p.ring.prev
	for at != &p.ring && at.seen > st.seen {
		at = at.prev
	}
	st.prev, st.next = at, at.next
	at.next.prev, at.next = st, st
}

// Observe trains the predictor with one completed task's chunk: bumps the
// frequency prior and extends the action's delta stream through the Markov
// tables. Call it in completion order — virtual time in the simulator,
// fragment arrival in the live head — so runs are reproducible.
func (p *Predictor) Observe(action core.ActionID, c volume.ChunkID, now units.Time) {
	j, ok := p.index.Get(c)
	if !ok {
		j = int32(len(p.freqs))
		p.freqs = append(p.freqs, emaEntry{chunk: c, at: now})
		p.index.Set(c, j)
	}
	e := &p.freqs[j]
	p.decayTo(e, now)
	e.val++

	st := p.streams[action]
	if st == nil {
		st = &stream{action: action}
		p.streams[action] = st
	}
	st.seen = now
	p.relink(st)
	if st.have > 0 {
		d := delta{ds: int(c.Dataset - st.last.Dataset), idx: c.Index - st.last.Index}
		if st.have >= 2 {
			row := p.t1[st.d1]
			if row == nil {
				row = &dist{}
				p.t1[st.d1] = row
			}
			row.bump(d)
		}
		if p.cfg.Order >= 2 && st.have >= 3 {
			key := trans2Key{d2: st.d2, d1: st.d1}
			row := p.t2[key]
			if row == nil {
				row = &dist{}
				p.t2[key] = row
			}
			row.bump(d)
		}
		st.d2, st.d1 = st.d1, d
	}
	st.last = c
	if st.have < 3 {
		st.have++
	}
}

// apply steps a chunk by a delta.
func apply(c volume.ChunkID, d delta) volume.ChunkID {
	return volume.ChunkID{Dataset: c.Dataset + volume.DatasetID(d.ds), Index: c.Index + d.idx}
}

// Candidates returns up to limit candidate chunks ranked by score
// (descending, chunk ID breaking ties): Markov continuations of every live
// stream blended with the decayed frequency prior. Candidates may name
// chunks that do not exist (a delta stepping past a dataset edge) — the
// controller's size lookup filters those. The slice is the predictor's
// scratch, valid until the next call.
func (p *Predictor) Candidates(now units.Time, limit int) []Candidate {
	// Markov continuations, streams visited in action order for determinism.
	// The list is ordered by seen, so the live streams are its newest end.
	live := p.live[:0]
	for st := p.ring.prev; st != &p.ring && now.Sub(st.seen) <= units.Duration(p.cfg.StreamTTL); st = st.prev {
		live = append(live, st)
	}
	slices.SortFunc(live, func(a, b *stream) int { return cmp.Compare(a.action, b.action) })
	p.live = live
	marked := p.marked[:0]
	for _, st := range live {
		var row *dist
		if p.cfg.Order >= 2 && st.have >= 3 {
			row = p.t2[trans2Key{d2: st.d2, d1: st.d1}]
		}
		if row == nil && st.have >= 2 {
			row = p.t1[st.d1]
		}
		if row == nil || row.total == 0 {
			continue
		}
		top, n := row.top2()
		for _, d := range top[:n] {
			next := apply(st.last, d)
			if next == st.last {
				continue // self-transition: already being demanded
			}
			i := slices.IndexFunc(marked, func(m Candidate) bool { return m.Chunk == next })
			if i < 0 {
				i, marked = len(marked), append(marked, Candidate{Chunk: next})
				if j, ok := p.index.Get(next); ok {
					p.freqs[j].mark = int32(len(marked))
				}
			}
			marked[i].Score += p.cfg.MarkovWeight * float64(row.counts[d]) / float64(row.total)
		}
	}
	p.marked = marked

	// Frequency prior, normalized by the hottest chunk. A marked chunk's
	// prior joins its Markov score; every other chunk is ranked on its own.
	out := p.out[:0]
	if maxVal := p.decay(now); maxVal > 0 {
		for i := range p.freqs {
			e := &p.freqs[i]
			if v := e.val / maxVal; v > 0 {
				if m := int(e.mark) - 1; m >= 0 && m < len(marked) && marked[m].Chunk == e.chunk {
					marked[m].Score += p.cfg.PriorWeight * v
				} else {
					out = p.offer(out, limit, Candidate{Chunk: e.chunk, Score: p.cfg.PriorWeight * v})
				}
			}
		}
	}
	for _, m := range marked {
		out = p.offer(out, limit, m)
	}
	p.out = out
	return out
}

// offer inserts c into out, the best limit candidates so far in ranking
// order, if it scores at least MinScore and ranks among them. The order is
// total (score descending, then CompareChunks), so out ends as the head of
// a full sort.
func (p *Predictor) offer(out []Candidate, limit int, c Candidate) []Candidate {
	if c.Score < p.cfg.MinScore {
		return out
	}
	i := len(out)
	for ; i > 0; i-- {
		if o := out[i-1]; c.Score < o.Score || c.Score == o.Score && volume.CompareChunks(c.Chunk, o.Chunk) > 0 {
			break
		}
	}
	if i >= limit {
		return out
	}
	return slices.Insert(out[:min(len(out), limit-1)], i, c)
}
