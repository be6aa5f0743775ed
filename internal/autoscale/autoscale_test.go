package autoscale

import (
	"sort"
	"testing"

	"vizsched/internal/units"
)

func tick(t units.Time, i int, d units.Duration) units.Time { return t.Add(units.Duration(i) * d) }

// TestAutoscalePolicyHysteresis drives the controller through a pressure
// step and checks the band behaviour: no action before HoldUp consecutive
// pressured samples, exactly one action per streak, and the dead band
// resetting both runs.
func TestAutoscalePolicyHysteresis(t *testing.T) {
	cfg := &Config{MaxNodes: 8, HoldUp: 3, HoldDown: 4, Cooldown: units.Second}
	p := NewPolicy(cfg)
	iv := p.Config().Interval

	calm := Signals{ActiveNodes: 4, QueueDepth: 2, MinHeadroom: 1}
	hot := Signals{ActiveNodes: 4, QueueDepth: 40, MinHeadroom: 1}

	var now units.Time
	for i := 0; i < 2; i++ {
		if d := p.Evaluate(tick(now, i, iv), hot); d != Hold {
			t.Fatalf("sample %d: got %v before HoldUp satisfied", i, d)
		}
	}
	if d := p.Evaluate(tick(now, 2, iv), hot); d != ScaleUp {
		t.Fatalf("3rd pressured sample: got %v, want ScaleUp", d)
	}

	// A dead-band sample (between QueueLow and QueueHigh) must reset the
	// streak: two more hot samples after it stay Hold even past cooldown.
	now = tick(now, 3, iv).Add(cfg.Cooldown)
	mid := Signals{ActiveNodes: 4, QueueDepth: 8, MinHeadroom: 1} // 2/node: in band
	if d := p.Evaluate(now, mid); d != Hold {
		t.Fatalf("dead-band sample: got %v", d)
	}
	for i := 0; i < 2; i++ {
		if d := p.Evaluate(tick(now, i+1, iv), hot); d != Hold {
			t.Fatalf("post-reset sample %d: got %v, want Hold", i, d)
		}
	}
	if d := p.Evaluate(tick(now, 3, iv), hot); d != ScaleUp {
		t.Fatalf("want ScaleUp after fresh streak, got %v", d)
	}

	// Quiet samples eventually drain — but only after HoldDown in a row,
	// and never below MinNodes.
	now = tick(now, 4, iv).Add(cfg.Cooldown)
	for i := 0; i < 3; i++ {
		if d := p.Evaluate(tick(now, i, iv), calm); d != Hold {
			t.Fatalf("quiet sample %d: got %v before HoldDown satisfied", i, d)
		}
	}
	if d := p.Evaluate(tick(now, 3, iv), calm); d != Drain {
		t.Fatalf("4th quiet sample: got %v, want Drain", d)
	}
}

// TestAutoscalePolicyCooldown verifies decisions are spaced by Cooldown
// even under sustained pressure.
func TestAutoscalePolicyCooldown(t *testing.T) {
	cfg := &Config{MaxNodes: 8, HoldUp: 1, Cooldown: 10 * units.Second}
	p := NewPolicy(cfg)
	hot := Signals{ActiveNodes: 2, QueueDepth: 100, MinHeadroom: 1}
	if d := p.Evaluate(0, hot); d != ScaleUp {
		t.Fatalf("first sample: got %v", d)
	}
	if d := p.Evaluate(units.Time(5*units.Second), hot); d != Hold {
		t.Fatalf("inside cooldown: got %v", d)
	}
	if d := p.Evaluate(units.Time(10*units.Second), hot); d != ScaleUp {
		t.Fatalf("after cooldown: got %v", d)
	}
}

// TestAutoscalePolicyGuards checks the structural guards: the fleet band,
// the single-drain-at-a-time rule, SLO pressure overriding a shallow
// queue, and cache pressure blocking drains.
func TestAutoscalePolicyGuards(t *testing.T) {
	cfg := &Config{MinNodes: 2, MaxNodes: 4, HoldUp: 1, HoldDown: 1, Cooldown: units.Millisecond}
	var now units.Time
	next := func() units.Time { now = now.Add(units.Second); return now }

	p := NewPolicy(cfg)
	if d := p.Evaluate(next(), Signals{ActiveNodes: 4, QueueDepth: 400, MinHeadroom: 1}); d != Hold {
		t.Fatalf("at MaxNodes: got %v", d)
	}
	// Draining nodes count against the ceiling: 3 active + 1 draining = 4.
	if d := p.Evaluate(next(), Signals{ActiveNodes: 3, DrainingNodes: 1, QueueDepth: 400, MinHeadroom: 1}); d != Hold {
		t.Fatalf("active+draining at MaxNodes: got %v", d)
	}

	p = NewPolicy(cfg)
	if d := p.Evaluate(next(), Signals{ActiveNodes: 2, QueueDepth: 0, MinHeadroom: 1}); d != Hold {
		t.Fatalf("at MinNodes: got %v", d)
	}
	if d := p.Evaluate(next(), Signals{ActiveNodes: 3, DrainingNodes: 1, QueueDepth: 0, MinHeadroom: 1}); d != Hold {
		t.Fatalf("drain already in flight: got %v", d)
	}
	if d := p.Evaluate(next(), Signals{ActiveNodes: 3, QueueDepth: 0, MinHeadroom: 1, CacheUtilization: 0.95}); d != Hold {
		t.Fatalf("cache above high water: got %v", d)
	}
	if d := p.Evaluate(next(), Signals{ActiveNodes: 3, QueueDepth: 0, MinHeadroom: 1}); d != Drain {
		t.Fatalf("drainable sample: got %v", d)
	}

	// SLO pressure scales up even with an empty queue; an empty queue with
	// thin headroom must never drain.
	p = NewPolicy(cfg)
	if d := p.Evaluate(next(), Signals{ActiveNodes: 3, QueueDepth: 0, MinHeadroom: 0.05}); d != ScaleUp {
		t.Fatalf("thin headroom: got %v, want ScaleUp", d)
	}
	p = NewPolicy(cfg)
	if d := p.Evaluate(next(), Signals{ActiveNodes: 3, QueueDepth: 0, MinHeadroom: 1, LadderLevel: 2}); d != ScaleUp {
		t.Fatalf("ladder level 2: got %v, want ScaleUp", d)
	}
}

// TestAutoscalePickVictim pins the victim ordering: idle beats busy, then
// lighter home pressure, then smaller cache, then higher ID.
func TestAutoscalePickVictim(t *testing.T) {
	if _, ok := PickVictim(nil); ok {
		t.Fatal("empty candidate list returned a victim")
	}
	cands := []Candidate{
		{ID: 0, Busy: true, HomePressure: 0},
		{ID: 1, Busy: false, HomePressure: 5, CacheBytes: units.MB},
		{ID: 2, Busy: false, HomePressure: 2, CacheBytes: 4 * units.MB},
		{ID: 3, Busy: false, HomePressure: 2, CacheBytes: 2 * units.MB},
		{ID: 4, Busy: false, HomePressure: 2, CacheBytes: 2 * units.MB},
	}
	id, ok := PickVictim(cands)
	if !ok || id != 4 {
		t.Fatalf("PickVictim = %v,%v; want node 4 (idle, lightest homes, smallest cache, highest ID)", id, ok)
	}
	sort.SliceStable(cands, func(i, j int) bool { return victimLess(cands[i], cands[j]) })
	want := []int{4, 3, 2, 1, 0}
	for i, c := range cands {
		if int(c.ID) != want[i] {
			t.Fatalf("drain preference order %v at %d; want %v", c.ID, i, want)
		}
	}
}

// TestAutoscaleHeadroom pins the clamping behaviour the signal builders
// rely on.
func TestAutoscaleHeadroom(t *testing.T) {
	slo := 100 * units.Millisecond
	cases := []struct {
		p95  units.Duration
		want float64
	}{
		{0, 1},                        // no observations: full headroom
		{50 * units.Millisecond, 0.5}, // half the budget used
		{100 * units.Millisecond, 0},  // at SLO
		{250 * units.Millisecond, 0},  // beyond SLO clamps at zero
	}
	for _, c := range cases {
		if got := Headroom(c.p95, slo); got != c.want {
			t.Fatalf("Headroom(%v) = %v, want %v", c.p95, got, c.want)
		}
	}
	if got := Headroom(50*units.Millisecond, 0); got != 1 {
		t.Fatalf("zero SLO should yield full headroom, got %v", got)
	}
}
