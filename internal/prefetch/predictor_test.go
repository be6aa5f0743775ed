package prefetch

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"vizsched/internal/core"
	"vizsched/internal/units"
	"vizsched/internal/volume"
)

func cid(ds, idx int) volume.ChunkID {
	return volume.ChunkID{Dataset: volume.DatasetID(ds), Index: idx}
}

func at(s float64) units.Time { return units.Time(float64(units.Second) * s) }

// An action walking indexes 0,1,2 within a dataset should predict index 3
// as the top candidate.
func TestPredictorOrder1Continuation(t *testing.T) {
	p := NewPredictor(nil)
	for i := 0; i < 3; i++ {
		p.Observe(1, cid(0, i), at(float64(i)))
	}
	cands := p.Candidates(at(2.5), 8)
	if len(cands) == 0 {
		t.Fatal("no candidates after a 3-chunk run")
	}
	if cands[0].Chunk != cid(0, 3) {
		t.Fatalf("top candidate = %v, want %v", cands[0].Chunk, cid(0, 3))
	}
}

// With order 2 enabled, a zig-zag stream (+1,+2,+1,+2,...) should use the
// two-delta context to pick the right continuation, where order 1 alone
// would mix both deltas.
func TestPredictorOrder2Context(t *testing.T) {
	p := NewPredictor(&Config{Order: 2})
	// Indexes: 0,1,3,4,6,7,9 -> deltas +1,+2,+1,+2,+1,+2. After trailing
	// (+1,+2) the learned continuation is +1 -> index 10.
	idxs := []int{0, 1, 3, 4, 6, 7, 9}
	for i, idx := range idxs {
		p.Observe(1, cid(0, idx), at(float64(i)))
	}
	cands := p.Candidates(at(6.5), 8)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	if cands[0].Chunk != cid(0, 10) {
		t.Fatalf("top candidate = %v, want %v (order-2 continuation)", cands[0].Chunk, cid(0, 10))
	}
}

// A dataset-sweep stream (ds+1, idx fixed) predicts the next dataset's
// chunk — the BatchTimeSeries shape.
func TestPredictorDatasetSweep(t *testing.T) {
	p := NewPredictor(nil)
	for i := 0; i < 4; i++ {
		p.Observe(7, cid(i, 2), at(float64(i)))
	}
	cands := p.Candidates(at(3.5), 8)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	if cands[0].Chunk != cid(4, 2) {
		t.Fatalf("top candidate = %v, want %v", cands[0].Chunk, cid(4, 2))
	}
}

// Identical observation sequences must yield identical rankings — the
// simulator's determinism depends on it.
func TestPredictorDeterministicRanking(t *testing.T) {
	build := func() []Candidate {
		p := NewPredictor(nil)
		seq := []struct {
			a core.ActionID
			c volume.ChunkID
		}{
			{1, cid(0, 0)}, {2, cid(3, 1)}, {1, cid(0, 1)}, {2, cid(3, 2)},
			{1, cid(0, 2)}, {3, cid(5, 0)}, {2, cid(3, 3)}, {3, cid(5, 1)},
			{1, cid(0, 3)}, {3, cid(5, 2)},
		}
		for i, o := range seq {
			p.Observe(o.a, o.c, at(float64(i)*0.3))
		}
		return p.Candidates(at(3.0), 16)
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("rankings differ across identical runs:\n%v\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("expected candidates from a mixed stream")
	}
}

// Streams older than StreamTTL stop contributing Markov continuations but
// the frequency prior persists (decayed).
func TestPredictorStreamTTLExpiry(t *testing.T) {
	p := NewPredictor(&Config{StreamTTL: units.Second})
	for i := 0; i < 3; i++ {
		p.Observe(1, cid(0, i), at(float64(i)*0.1))
	}
	// Just after the run: continuation present.
	fresh := p.Candidates(at(0.3), 8)
	found := false
	for _, c := range fresh {
		if c.Chunk == cid(0, 3) {
			found = true
		}
	}
	if !found {
		t.Fatal("live stream should predict its continuation")
	}
	// Well past TTL: the never-observed continuation chunk must be gone.
	stale := p.Candidates(at(10), 8)
	for _, c := range stale {
		if c.Chunk == cid(0, 3) {
			t.Fatalf("expired stream still predicting continuation: %v", stale)
		}
	}
}

// The EMA prior decays: a chunk hot long ago ranks below a chunk hot now.
func TestPredictorFrequencyDecay(t *testing.T) {
	p := NewPredictor(&Config{HalfLife: 2 * units.Second})
	// Old-hot chunk: 4 touches at t=0, distinct actions so no Markov stream forms.
	for i := 0; i < 4; i++ {
		p.Observe(core.ActionID(10+i), cid(0, 0), at(0))
	}
	// Recent chunk: 2 touches at t=10.
	for i := 0; i < 2; i++ {
		p.Observe(core.ActionID(20+i), cid(1, 0), at(10))
	}
	cands := p.Candidates(at(10), 8)
	if len(cands) < 2 {
		t.Fatalf("want both chunks in candidates, got %v", cands)
	}
	if cands[0].Chunk != cid(1, 0) {
		t.Fatalf("recent chunk should outrank decayed one, got %v first", cands[0].Chunk)
	}
}

// Self-transitions (delta 0,0 — repeated touches of the same chunk) never
// propose the chunk the stream is already on.
func TestPredictorSkipsSelfTransition(t *testing.T) {
	p := NewPredictor(&Config{PriorWeight: -1}) // isolate the Markov part
	for i := 0; i < 5; i++ {
		p.Observe(1, cid(0, 0), at(float64(i)))
	}
	for _, c := range p.Candidates(at(4.5), 8) {
		if c.Chunk == cid(0, 0) {
			t.Fatal("self-transition proposed the current chunk")
		}
	}
}

// referenceCandidates is Candidates as it stood before it reused its
// scratch, kept verbatim (with the top and chunk order it called) so
// TestPredictorCandidatesMatchReference can hold the scratch-reusing body
// to it bit for bit. Only its read of the frequency table goes through a
// Go map copied out of the predictor's flat entry slice.
func referenceCandidates(p *Predictor, now units.Time, limit int) []Candidate {
	scores := make(map[volume.ChunkID]float64)

	// Markov continuations, streams visited in action order for determinism.
	acts := make([]core.ActionID, 0, len(p.streams))
	for a, st := range p.streams {
		if now.Sub(st.seen) <= units.Duration(p.cfg.StreamTTL) {
			acts = append(acts, a)
		}
	}
	slices.Sort(acts)
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
		for _, d := range referenceTop(row, 2) {
			next := apply(st.last, d)
			if next == st.last {
				continue // self-transition: already being demanded
			}
			scores[next] += p.cfg.MarkovWeight * float64(row.counts[d]) / float64(row.total)
		}
	}

	// Frequency prior, normalized by the hottest chunk.
	freqs := make(map[volume.ChunkID]*emaEntry)
	for i := range p.freqs {
		freqs[p.freqs[i].chunk] = &p.freqs[i]
	}
	chunks := make([]volume.ChunkID, 0, len(freqs))
	maxVal := 0.0
	for c, e := range freqs {
		p.decayTo(e, now)
		if e.val > maxVal {
			maxVal = e.val
		}
		chunks = append(chunks, c)
	}
	if maxVal > 0 {
		slices.SortFunc(chunks, referenceChunkCompare)
		for _, c := range chunks {
			if v := freqs[c].val / maxVal; v > 0 {
				scores[c] += p.cfg.PriorWeight * v
			}
		}
	}

	out := make([]Candidate, 0, len(scores))
	for c, s := range scores {
		if s >= p.cfg.MinScore {
			out = append(out, Candidate{Chunk: c, Score: s})
		}
	}
	slices.SortFunc(out, func(a, b Candidate) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return referenceChunkCompare(a.Chunk, b.Chunk)
	})
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

func referenceTop(d *dist, n int) []delta {
	keys := make([]delta, 0, len(d.counts))
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

func referenceChunkCompare(a, b volume.ChunkID) int {
	if c := cmp.Compare(a.Dataset, b.Dataset); c != 0 {
		return c
	}
	return cmp.Compare(a.Index, b.Index)
}

// observeSeeded feeds every predictor the same seeded stream — up to six
// actions walking chunks by a few recurring deltas, with pauses long enough
// to expire streams — and calls ask after every observation.
func observeSeeded(seed int64, ask func(now units.Time, limit int), preds ...*Predictor) {
	rng := rand.New(rand.NewSource(seed))
	steps := []delta{{0, 1}, {0, 1}, {0, 2}, {1, 0}, {0, -1}, {0, 0}}
	pos := map[core.ActionID]volume.ChunkID{}
	now := units.Time(0)
	for i := 0; i < 400; i++ {
		a := core.ActionID(rng.Intn(6) + 1)
		c := apply(pos[a], steps[rng.Intn(len(steps))])
		pos[a] = c
		for _, p := range preds {
			p.Observe(a, c, now)
		}
		ask(now.Add(units.Duration(rng.Intn(50))*units.Millisecond), rng.Intn(12)+1)
		step := units.Duration(rng.Intn(400)) * units.Millisecond
		if rng.Intn(40) == 0 {
			step = 30 * units.Second
		}
		now = now.Add(step)
	}
}

// TestPredictorCandidatesMatchReference: on seeded observation streams and
// every configuration shape, Candidates returns exactly what the
// allocating body it replaced returned — same chunks, same order, the same
// float64 bits in every score.
func TestPredictorCandidatesMatchReference(t *testing.T) {
	cfgs := []*Config{nil, {Order: 2}, {HalfLife: units.Second, StreamTTL: 2 * units.Second}, {PriorWeight: -1, MinScore: 0.05}}
	for seed := int64(1); seed <= 12; seed++ {
		cfg := cfgs[seed%int64(len(cfgs))]
		fast, ref := NewPredictor(cfg), NewPredictor(cfg)
		calls := 0
		observeSeeded(seed, func(now units.Time, limit int) {
			calls++
			got, want := fast.Candidates(now, limit), referenceCandidates(ref, now, limit)
			if len(got) != len(want) {
				t.Fatalf("seed %d call %d: %d candidates, reference %d", seed, calls, len(got), len(want))
			}
			for i := range want {
				if got[i].Chunk != want[i].Chunk || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
					t.Fatalf("seed %d call %d: candidate %d is %+v, reference %+v", seed, calls, i, got[i], want[i])
				}
			}
		}, fast, ref)
	}
}

// TestPredictorCandidatesNoAllocs: the planner asks for candidates every
// scheduling cycle, so once its scratch has grown a call allocates nothing.
func TestPredictorCandidatesNoAllocs(t *testing.T) {
	p := NewPredictor(&Config{Order: 2})
	var last units.Time
	observeSeeded(3, func(now units.Time, _ int) { last = now }, p)
	if len(p.Candidates(last, 8)) == 0 {
		t.Fatal("no candidates after a seeded stream")
	}
	if allocs := testing.AllocsPerRun(50, func() { p.Candidates(last, 8) }); allocs != 0 {
		t.Errorf("Candidates allocates %v times a call, want 0", allocs)
	}
}

// scriptConfigs are the configuration shapes of
// TestPredictorCandidatesMatchReference, for the scripted tests.
var scriptConfigs = []*Config{nil, {Order: 2}, {HalfLife: units.Second, StreamTTL: 2 * units.Second}, {PriorWeight: -1, MinScore: 0.05}}

// scriptChunk decodes one byte into a chunk: mostly dense IDs in a small
// block, so streams often continue onto the same chunk, and a quarter
// spilled ones, with a negative dataset or index or an index of 4,096 and
// above.
func scriptChunk(b byte) volume.ChunkID {
	switch {
	case b < 192:
		return cid(int(b>>3)%3, int(b&7))
	case b < 216:
		return cid(int(b&1), -1-int(b>>1&7))
	case b < 240:
		return cid(int(b&1), 4096+int(b>>1&7))
	default:
		return cid(-1, int(b&7))
	}
}

// scriptStep decodes one byte into the time between two observations:
// mostly under a second, sometimes long enough to expire a stream (up to
// 4 s, or 30 s at 255) and sometimes a step back.
func scriptStep(b byte) units.Duration {
	switch {
	case b < 200:
		return units.Duration(b) * 5 * units.Millisecond
	case b < 240:
		return units.Duration(b-199) * 100 * units.Millisecond
	case b < 255:
		return -units.Duration(b-239) * 20 * units.Millisecond
	default:
		return 30 * units.Second
	}
}

// FuzzPredictorCandidates plays a script of observations and queries on a
// predictor and on a twin ranked by referenceCandidates, and holds every
// answer to the reference bit for bit. The first byte picks one of the
// configurations of TestPredictorCandidatesMatchReference; each step is then
// three bytes. An even op observes scriptChunk(arg) for one of six actions
// after scriptStep(dt); an odd op asks for up to arg%40 candidates at a time
// from 2.4 s before to 4 s after the last observation.
func FuzzPredictorCandidates(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1024 {
			return
		}
		cfg := scriptConfigs[int(data[0])%len(scriptConfigs)]
		fast, ref := NewPredictor(cfg), NewPredictor(cfg)
		now := units.Time(0)
		for i := 1; i+2 < len(data); i += 3 {
			op, arg, dt := data[i], data[i+1], data[i+2]
			if op%2 == 0 {
				a, c := core.ActionID(op/2%6+1), scriptChunk(arg)
				now = now.Add(scriptStep(dt))
				fast.Observe(a, c, now)
				ref.Observe(a, c, now)
				continue
			}
			q, limit := now.Add(units.Duration(int(dt)-96)*25*units.Millisecond), int(arg%40)
			sameCandidates(t, fmt.Sprintf("step %d", i/3), fast.Candidates(q, limit), referenceCandidates(ref, q, limit))
		}
	})
}
