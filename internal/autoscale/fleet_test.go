package autoscale

import (
	"slices"
	"testing"

	"vizsched/internal/core"
	"vizsched/internal/prefetch"
	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// fakePlane records what the Fleet asks of a plane and answers from
// settable tables.
type fakePlane struct {
	busy    []bool
	queued  []int // not-yet-running tasks Drain hands back
	owed    []int // tasks Retire hands back
	drained []core.NodeID
	retired []core.NodeID
	warms   []core.PrefetchDirective
}

func (p *fakePlane) Busy(k core.NodeID) bool { return p.busy[k] }

func (p *fakePlane) Drain(k core.NodeID) int {
	p.drained = append(p.drained, k)
	return p.queued[k]
}

func (p *fakePlane) Warm(d core.PrefetchDirective) { p.warms = append(p.warms, d) }

func (p *fakePlane) Retire(k core.NodeID) int {
	p.retired = append(p.retired, k)
	return p.owed[k]
}

// drainEveryTick is tuned so every evaluation is drain pressure and the
// cooldown never holds one back: only the one-drain rule and MinNodes do.
func drainEveryTick() *Config {
	return &Config{
		Interval:  100 * units.Millisecond,
		MinNodes:  1,
		QueueHigh: 1e9,
		QueueLow:  1e9 - 1,
		HoldDown:  1,
		Cooldown:  units.Nanosecond,
		MaxDrain:  units.Second,
		Warmup:    units.Second,
	}
}

func newFakeFleet(cfg *Config, nodes int, pref *prefetch.Controller) (*Fleet, *core.HeadState, *fakePlane) {
	head := core.NewHeadState(nodes, units.GB, core.DefaultCostModel())
	p := &fakePlane{busy: make([]bool, nodes), queued: make([]int, nodes), owed: make([]int, nodes)}
	return NewFleet(cfg, head, pref, nil, p), head, p
}

// at is the i-th control tick.
func at(i int) units.Time { return units.Time(units.Duration(i) * 100 * units.Millisecond) }

func draining(head *core.HeadState) []core.NodeID {
	var out []core.NodeID
	for k := range head.Nodes() {
		if head.Draining(core.NodeID(k)) {
			out = append(out, core.NodeID(k))
		}
	}
	return out
}

// A drain holds the fleet until it ends: while the victim stays busy no
// other node is drained, and the next drain starts at the evaluation after
// the first victim retires.
func TestAutoscaleFleetOneDrainAtATime(t *testing.T) {
	f, head, p := newFakeFleet(drainEveryTick(), 3, nil)
	p.busy = []bool{true, true, true}
	if d := f.Tick(at(1), 0); d != Drain {
		t.Fatalf("first evaluation: %v, want drain", d)
	}
	for i := 2; i < 6; i++ {
		if d := f.Tick(at(i), 0); d != Hold {
			t.Errorf("tick %d with a drain in flight: %v, want hold", i, d)
		}
	}
	if got := draining(head); len(got) != 1 || f.Outcome().Drains != 1 {
		t.Fatalf("draining %v after %d drains, want one node and one drain", got, f.Outcome().Drains)
	}
	victim := p.drained[0]
	p.busy[victim] = false
	if d := f.Tick(at(6), 0); d != Drain {
		t.Fatalf("tick after the victim went idle: %v, want the next drain", d)
	}
	if !slices.Equal(p.retired, []core.NodeID{victim}) || head.Health(victim) != core.HealthDown {
		t.Errorf("retired %v, victim %v; want the first victim retired and down", p.retired, head.Health(victim))
	}
	if o := f.Outcome(); o.Drains != 2 || o.DrainsCompleted != 1 {
		t.Errorf("%d drains, %d completed; want 2 and 1", o.Drains, o.DrainsCompleted)
	}
}

// A victim that crashes mid-drain belongs to the crash path: the drain is
// abandoned, never completed or retired, and the fleet may drain again.
func TestAutoscaleFleetCrashMidDrainAbandons(t *testing.T) {
	f, head, p := newFakeFleet(drainEveryTick(), 3, nil)
	p.busy = []bool{true, true, true}
	f.Tick(at(1), 0)
	victim := p.drained[0]
	head.MarkFailed(victim)
	if d := f.Tick(at(2), 0); d != Drain {
		t.Fatalf("tick after the crash: %v, want a fresh drain", d)
	}
	if o := f.Outcome(); o.DrainsCompleted != 0 || o.DrainTime.N != 0 || len(p.retired) != 0 {
		t.Errorf("crashed drain counted: %d completed, %d drain times, retired %v", o.DrainsCompleted, o.DrainTime.N, p.retired)
	}
	if len(p.drained) != 2 || p.drained[1] == victim {
		t.Errorf("drained %v, want a second victim other than %d", p.drained, victim)
	}
}

// At MaxDrain the victim leaves however busy it still is, and what it owes
// comes back as migrations alongside what Drain took at the start.
func TestAutoscaleFleetMaxDrainHandsBackOwedWork(t *testing.T) {
	f, head, p := newFakeFleet(drainEveryTick(), 2, nil)
	p.busy = []bool{true, true}
	p.queued = []int{2, 2}
	p.owed = []int{3, 3}
	f.Tick(at(1), 0)
	victim := p.drained[0]
	maxDrain := f.Config().MaxDrain
	f.Tick(at(1).Add(maxDrain-units.Nanosecond), 0)
	if len(p.retired) != 0 {
		t.Fatalf("retired %v a nanosecond before MaxDrain", p.retired)
	}
	f.Tick(at(1).Add(maxDrain), 0)
	if !slices.Equal(p.retired, []core.NodeID{victim}) || head.Health(victim) != core.HealthDown {
		t.Fatalf("at MaxDrain: retired %v, victim %v; want it retired and down", p.retired, head.Health(victim))
	}
	o := f.Outcome()
	if o.TasksMigrated != 5 || o.DrainsCompleted != 1 || o.DrainTime.Mean() != maxDrain {
		t.Errorf("%d migrated, %d completed, drain time %v; want 2+3, 1, %v", o.TasksMigrated, o.DrainsCompleted, o.DrainTime.Mean(), maxDrain)
	}
}

// A bring-up window warms at activation and on every tick up to its
// deadline, then closes; it also closes for good when the node stops being
// Up, even if the node comes back inside the window.
func TestAutoscaleFleetWarmWindowCloses(t *testing.T) {
	sizeOf := func(volume.ChunkID) units.Bytes { return units.MB }
	pref := prefetch.NewController(nil, 2, sizeOf)
	for i := range 8 {
		pref.Observe(1, volume.ChunkID{Dataset: 1, Index: i}, 0)
	}
	cfg := drainEveryTick()
	cfg.MinNodes = 2 // no drains: this test watches the warms
	f, head, p := newFakeFleet(cfg, 2, pref)
	settle := func() {
		for _, d := range p.warms {
			pref.Loaded(d.Node, d.Chunk)
		}
	}
	warmsOn := func(k core.NodeID) int {
		n := 0
		for _, d := range p.warms {
			if d.Node == k {
				n++
			}
		}
		return n
	}

	f.Activated(at(0), 0)
	f.Activated(at(0), 1)
	if warmsOn(0) != 1 || warmsOn(1) != 1 {
		t.Fatalf("warms at activation: %v, want one per node", p.warms)
	}
	settle()
	head.MarkSuspect(1)
	f.Tick(at(5), 0)
	settle()
	head.MarkUp(1)
	f.Tick(at(10), 0) // the deadline itself is inside the window
	settle()
	if warmsOn(0) != 3 || warmsOn(1) != 1 {
		t.Errorf("warms up to the deadline: node 0 %d, node 1 %d; want 3 and 1", warmsOn(0), warmsOn(1))
	}
	f.Tick(at(10).Add(units.Nanosecond), 0)
	if warmsOn(0) != 3 || warmsOn(1) != 1 {
		t.Errorf("warms past the deadline: node 0 %d, node 1 %d; want 3 and 1", warmsOn(0), warmsOn(1))
	}
	if o := f.Outcome(); o.BringupWarms != 4 || o.WarmBytes != 4*units.MB {
		t.Errorf("%d bring-up warms of %v, want 4 of 4 MB", o.BringupWarms, o.WarmBytes)
	}
}

// Victims leave in PickVictim's order over the Up nodes left: idle before
// busy, then the smaller cache, then the higher ID.
func TestAutoscaleFleetVictimsInPickVictimOrder(t *testing.T) {
	f, head, p := newFakeFleet(drainEveryTick(), 4, nil)
	p.busy = []bool{false, true, false, false}
	for k, n := range []int{1, 0, 3, 1} {
		for i := range n {
			head.Caches[k].Insert(volume.ChunkID{Dataset: volume.DatasetID(k + 1), Index: i}, units.MB)
		}
	}
	var want []core.NodeID
	left := []core.NodeID{0, 1, 2, 3}
	for len(left) > 1 {
		var cands []Candidate
		for _, k := range left {
			cands = append(cands, Candidate{ID: k, Busy: p.busy[k], CacheBytes: head.Caches[k].Used()})
		}
		v, _ := PickVictim(cands)
		want = append(want, v)
		left = slices.DeleteFunc(left, func(k core.NodeID) bool { return k == v })
	}
	for i := 1; i <= 8; i++ {
		f.Tick(at(i), 0)
	}
	if !slices.Equal(p.drained, want) || !slices.Equal(p.retired, want) {
		t.Errorf("drained %v, retired %v; want %v", p.drained, p.retired, want)
	}
	if !slices.Equal(want, []core.NodeID{3, 0, 2}) {
		t.Errorf("PickVictim order %v, want [3 0 2]", want)
	}
}
