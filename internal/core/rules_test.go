package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"vizsched/internal/cache"
	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// ruleRecorder is both observers a head attaches: it writes down every call
// the tables make, in order, and counts the wastes.
type ruleRecorder struct {
	calls  []string
	wasted int64
}

func (r *ruleRecorder) add(format string, args ...any) {
	r.calls = append(r.calls, fmt.Sprintf(format, args...))
}

// Publish also notes whether the tables already hold what they publish: the
// directory reads them after the completion is folded in.
func (r *ruleRecorder) Publish(tables *HeadState, res TaskResult) {
	r.add("publish %d %v resident=%v", res.Node, res.Task.Chunk, tables.Caches[res.Node].Contains(res.Task.Chunk))
}
func (r *ruleRecorder) DropNode(k NodeID) { r.add("drop %d", k) }
func (r *ruleRecorder) Observe(a ActionID, c volume.ChunkID, now units.Time) {
	r.add("observe %d %v %v", a, c, now)
}
func (r *ruleRecorder) Loaded(k NodeID, c volume.ChunkID)      { r.add("loaded %d %v", k, c) }
func (r *ruleRecorder) NoteEvicted(k NodeID, c volume.ChunkID) { r.add("evicted %d %v", k, c) }
func (r *ruleRecorder) FailNode(k NodeID)                      { r.add("fail %d", k) }
func (r *ruleRecorder) Wasted(k NodeID, c volume.ChunkID) {
	r.wasted++
	r.add("wasted %d %v", k, c)
}

// rulesScript plays a fuzz input as head facts on two tables built alike:
// obs with a recorder attached as both observers, bare with none, as replay
// builds them. want is the calls the recorder must see for the step, and
// tags the Prefetched table as the rules say it must stand.
type rulesScript struct {
	t         *testing.T
	data      []byte
	obs, bare *HeadState
	rec       ruleRecorder
	want      []string
	tags      map[prefKey]bool
	wasted    int64
	now       units.Time
	step      int
}

const ruleNodes, ruleChunks = 3, 8

func (s *rulesScript) next() int {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return int(b)
}

func (s *rulesScript) node() NodeID { return NodeID(s.next() % ruleNodes) }

func (s *rulesScript) chunk() volume.ChunkID {
	return volume.ChunkID{Dataset: 1, Index: s.next() % ruleChunks}
}

// ruleSize is a chunk's one size: odd bricks are twice as big.
func ruleSize(c volume.ChunkID) units.Bytes { return units.Bytes(1+c.Index%2) * units.MB }

// evictions picks up to two chunks node k's predicted cache holds, none of
// them except.
func (s *rulesScript) evictions(k NodeID, except volume.ChunkID) []volume.ChunkID {
	var ev []volume.ChunkID
	res := s.obs.Caches[k].Resident()
	for n := s.next() % 3; n > 0 && len(res) > 0; n-- {
		if c := res[s.next()%len(res)]; c != except {
			ev = append(ev, c)
		}
	}
	return ev
}

// waste expects chunk c on node k to settle as wasted if it is tagged.
func (s *rulesScript) waste(k NodeID, c volume.ChunkID) {
	if s.tags[prefKey{c, k}] {
		delete(s.tags, prefKey{c, k})
		s.wasted++
		s.want = append(s.want, fmt.Sprintf("wasted %d %v", k, c))
	}
}

// wasteNode expects every tag on node k whose chunk keep does not hold to
// settle, in chunk order.
func (s *rulesScript) wasteNode(k NodeID, keep *cache.Store) {
	var gone []volume.ChunkID
	for key := range s.tags {
		if key.k == k && (keep == nil || !keep.Contains(key.c)) {
			gone = append(gone, key.c)
		}
	}
	slices.SortFunc(gone, volume.CompareChunks)
	for _, c := range gone {
		s.waste(k, c)
	}
}

func (s *rulesScript) expect(format string, args ...any) {
	s.want = append(s.want, fmt.Sprintf(format, args...))
}

// both applies one head fact to each table.
func (s *rulesScript) both(fn func(h *HeadState)) {
	fn(s.obs)
	fn(s.bare)
}

func (s *rulesScript) run() {
	for len(s.data) > 0 {
		s.step++
		s.rec.calls, s.want = s.rec.calls[:0], s.want[:0]
		s.now = s.now.Add(units.Duration(s.next()) * units.Millisecond)
		op, k := s.next()%7, s.node()
		var what string
		switch op {
		case 0:
			c, hit := s.chunk(), s.next()%2 == 0
			j := &Job{ID: JobID(s.step), Action: ActionID(1 + s.next()%3)}
			j.Tasks = []Task{{Job: j, Chunk: c, Size: ruleSize(c)}}
			res := TaskResult{
				Task: &j.Tasks[0], Node: k, Hit: hit,
				Exec:      units.Duration(1+s.next()) * units.Millisecond,
				Predicted: units.Duration(s.next()) * units.Millisecond,
				Evicted:   s.evictions(k, c),
				Finished:  s.now,
			}
			what = fmt.Sprintf("Correct(%d %v hit=%v evicted=%v)", k, c, hit, res.Evicted)
			for _, ev := range res.Evicted {
				s.waste(k, ev)
			}
			s.expect("publish %d %v resident=true", k, c)
			s.expect("observe %d %v %v", j.Action, c, s.now)
			s.both(func(h *HeadState) { h.Correct(res, s.now) })
		case 1:
			c := s.chunk()
			evicted := s.evictions(k, c)
			what = fmt.Sprintf("LandWarm(%v %d evicted=%v)", c, k, evicted)
			s.expect("loaded %d %v", k, c)
			displaced, ok := s.obs.Caches[k].Clone().InsertCold(c, ruleSize(c))
			for _, d := range displaced {
				s.waste(k, d)
			}
			if ok {
				s.tags[prefKey{c, k}] = true
			}
			for _, ev := range evicted {
				s.expect("evicted %d %v", k, ev)
				s.waste(k, ev)
			}
			s.both(func(h *HeadState) { h.LandWarm(c, k, ruleSize(c), evicted) })
		case 2:
			c := s.chunk()
			what = fmt.Sprintf("DemandTouchPrefetched(%v %d)", c, k)
			want := s.tags[prefKey{c, k}]
			delete(s.tags, prefKey{c, k})
			s.both(func(h *HeadState) {
				if got := h.DemandTouchPrefetched(c, k); got != want {
					s.t.Fatalf("step %d: %s reports %v, want %v", s.step, what, got, want)
				}
			})
		case 3:
			what = fmt.Sprintf("MarkFailed(%d)", k)
			s.expect("fail %d", k)
			s.wasteNode(k, nil)
			s.expect("drop %d", k)
			s.both(func(h *HeadState) { h.MarkFailed(k) })
		case 4:
			what = fmt.Sprintf("MarkRepaired(%d)", k)
			s.both(func(h *HeadState) { h.MarkRepaired(k, s.now) })
		case 5:
			what = fmt.Sprintf("MarkDraining+CompleteDrain(%d)", k)
			if s.obs.Health(k) == HealthUp {
				s.wasteNode(k, nil)
				s.expect("drop %d", k)
			}
			s.both(func(h *HeadState) {
				if h.MarkDraining(k) {
					h.CompleteDrain(k)
				}
			})
		case 6:
			var entries []cache.Entry
			for n := s.next() % 4; n > 0; n-- {
				c := s.chunk()
				entries = append(entries, cache.Entry{ID: c, Size: ruleSize(c)})
			}
			what = fmt.Sprintf("ResyncCache(%d %v)", k, entries)
			s.both(func(h *HeadState) { h.ResyncCache(k, entries) })
			s.wasteNode(k, s.obs.Caches[k])
		}
		s.check(what)
	}
}

// check holds the tables to the rules after one step.
func (s *rulesScript) check(what string) {
	s.t.Helper()
	fail := func(format string, args ...any) {
		s.t.Fatalf("step %d, %s: %s", s.step, what, fmt.Sprintf(format, args...))
	}
	a, b := s.obs.Dump(), s.bare.Dump()
	if !reflect.DeepEqual(a, b) {
		fail("observed tables %+v differ from bare ones %+v", a, b)
	}
	for _, h := range []*HeadState{s.obs, s.bare} {
		if err := h.Validate(); err != nil {
			fail("%v", err)
		}
	}
	if !slices.Equal(s.rec.calls, s.want) {
		fail("observers heard %q, want %q", s.rec.calls, s.want)
	}
	_, _, wasted := s.obs.PrefetchAccuracy()
	if s.rec.wasted != wasted || wasted != s.wasted {
		fail("observer heard %d wastes, the tables count %d, the rules %d", s.rec.wasted, wasted, s.wasted)
	}
	same := len(a.Prefetched) == len(s.tags)
	for _, e := range a.Prefetched {
		same = same && s.tags[prefKey{e.Chunk, e.Node}]
	}
	if !same {
		fail("Prefetched table %v, the rules tag %v", a.Prefetched, s.tags)
	}
}

// FuzzHeadRules plays head facts — completions hit or miss with evictions,
// landed warms with evictions, demand touches, failures, repairs, drains
// and resyncs — on two tables built alike, one with both observers
// attached and one bare as replay builds it. After every step the two dump
// alike (observers never change the tables), both validate, the observers
// heard exactly the calls the rules make, in order — wastes of a lost node
// in chunk order — and the wastes they heard are the ones the tables
// count. The first byte picks the replication degree.
func FuzzHeadRules(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 512 {
			return
		}
		s := &rulesScript{t: t, data: data[1:], tags: make(map[prefKey]bool)}
		s.obs = NewHeadState(ruleNodes, 4*units.MB, DefaultCostModel())
		s.bare = NewHeadState(ruleNodes, 4*units.MB, DefaultCostModel())
		if data[0]%2 == 1 {
			s.obs.SetReplication(2)
			s.bare.SetReplication(2)
		}
		s.obs.SetDirectoryWriter(&s.rec)
		s.obs.SetPrefetchObserver(&s.rec)
		s.run()
	})
}
