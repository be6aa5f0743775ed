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

// top returns the row's n most likely next deltas, ties broken toward the
// smaller delta so identical tables always rank identically. It ranks in
// keys' storage and returns the reslice.
func (d *dist) top(keys []delta, n int) []delta {
	keys = keys[:0]
	for k := range d.counts {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b delta) int {
		if c := cmp.Compare(d.counts[b], d.counts[a]); c != 0 {
			return c
		}
		if c := cmp.Compare(a.ds, b.ds); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	if len(keys) > n {
		keys = keys[:n]
	}
	return keys
}

// stream is one action's footprint state: the last chunk seen and the last
// two deltas, enough to key both Markov orders.
type stream struct {
	last   volume.ChunkID
	d1, d2 delta
	have   int // chunks observed, saturating at 3
	seen   units.Time
}

// emaEntry is one chunk's decayed access frequency, decayed lazily at
// read/write time so idle chunks cost nothing.
type emaEntry struct {
	val float64
	at  units.Time
}

// Candidate is one ranked prefetch suggestion.
type Candidate struct {
	Chunk volume.ChunkID
	Score float64
}

// Predictor learns the workload's chunk-access structure online and emits
// ranked candidates. It is deterministic: identical observation sequences
// produce identical candidate rankings (all map iterations are sorted).
// Not safe for concurrent use; its owner (engine or head dispatcher)
// serializes access.
type Predictor struct {
	cfg     Config
	t1      map[delta]*dist
	t2      map[trans2Key]*dist
	streams map[core.ActionID]*stream
	freqs   volume.ChunkMap[*emaEntry]

	// Candidates' scratch, cleared and refilled on every call.
	scores volume.ChunkMap[float64]
	acts   []core.ActionID
	deltas []delta
	out    []Candidate
}

// NewPredictor builds an empty predictor; nil selects all defaults.
func NewPredictor(cfg *Config) *Predictor {
	c := Config{}
	if cfg != nil {
		c = *cfg
	}
	return &Predictor{
		cfg:     c.withDefaults(),
		t1:      make(map[delta]*dist),
		t2:      make(map[trans2Key]*dist),
		streams: make(map[core.ActionID]*stream),
	}
}

// decayTo folds the exponential decay since the entry's last update.
func (p *Predictor) decayTo(e *emaEntry, now units.Time) {
	if dt := now.Sub(e.at); dt > 0 {
		e.val *= math.Exp2(-dt.Seconds() / p.cfg.HalfLife.Seconds())
		e.at = now
	}
}

// Observe trains the predictor with one completed task's chunk: bumps the
// frequency prior and extends the action's delta stream through the Markov
// tables. Call it in completion order — virtual time in the simulator,
// fragment arrival in the live head — so runs are reproducible.
func (p *Predictor) Observe(action core.ActionID, c volume.ChunkID, now units.Time) {
	e, _ := p.freqs.Get(c)
	if e == nil {
		e = &emaEntry{at: now}
		p.freqs.Set(c, e)
	}
	p.decayTo(e, now)
	e.val++

	st := p.streams[action]
	if st == nil {
		st = &stream{}
		p.streams[action] = st
	}
	st.seen = now
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
	scores := &p.scores
	scores.Clear()

	// Markov continuations, streams visited in action order for determinism.
	acts := p.acts[:0]
	for a, st := range p.streams {
		if now.Sub(st.seen) <= units.Duration(p.cfg.StreamTTL) {
			acts = append(acts, a)
		}
	}
	slices.Sort(acts)
	p.acts = acts
	for _, a := range acts {
		st := p.streams[a]
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
		p.deltas = row.top(p.deltas, 2)
		for _, d := range p.deltas {
			next := apply(st.last, d)
			if next == st.last {
				continue // self-transition: already being demanded
			}
			s, _ := scores.Get(next)
			scores.Set(next, s+p.cfg.MarkovWeight*float64(row.counts[d])/float64(row.total))
		}
	}

	// Frequency prior, normalized by the hottest chunk.
	maxVal := 0.0
	p.freqs.Range(func(_ volume.ChunkID, e *emaEntry) bool {
		p.decayTo(e, now)
		if e.val > maxVal {
			maxVal = e.val
		}
		return true
	})
	if maxVal > 0 {
		p.freqs.Range(func(c volume.ChunkID, e *emaEntry) bool {
			if v := e.val / maxVal; v > 0 {
				s, _ := scores.Get(c)
				scores.Set(c, s+p.cfg.PriorWeight*v)
			}
			return true
		})
	}

	out := p.out[:0]
	scores.Range(func(c volume.ChunkID, s float64) bool {
		if s >= p.cfg.MinScore {
			out = append(out, Candidate{Chunk: c, Score: s})
		}
		return true
	})
	p.out = out
	slices.SortFunc(out, func(a, b Candidate) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return volume.CompareChunks(a.Chunk, b.Chunk)
	})
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}
