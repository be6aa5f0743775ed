package des

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"vizsched/internal/units"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var got []units.Time
	times := []units.Duration{5, 1, 3, 2, 4}
	for _, d := range times {
		s.After(d*units.Millisecond, func(sim *Simulator) {
			got = append(got, sim.Now())
		})
	}
	end := s.Run(0)
	if len(got) != len(times) {
		t.Fatalf("fired %d events, want %d", len(got), len(times))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("events out of order: %v", got)
		}
	}
	if end != units.Time(5*units.Millisecond) {
		t.Errorf("end time = %v, want 5ms", end)
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(units.Time(units.Second), func(*Simulator) { order = append(order, i) })
	}
	s.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(units.Time(units.Second), func(sim *Simulator) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		sim.At(0, func(*Simulator) {})
	})
	s.Run(0)
}

func TestNilEventPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil event did not panic")
		}
	}()
	New().At(0, nil)
}

func TestHorizonStopsLoop(t *testing.T) {
	s := New()
	fired := 0
	for i := 1; i <= 10; i++ {
		s.At(units.Time(i)*units.Time(units.Second), func(*Simulator) { fired++ })
	}
	end := s.Run(units.Time(4 * units.Second))
	if fired != 4 {
		t.Errorf("fired = %d, want 4", fired)
	}
	if end != units.Time(4*units.Second) {
		t.Errorf("end = %v, want 4s", end)
	}
	// Continuing the run picks up where the horizon left off.
	end = s.Run(0)
	if fired != 10 {
		t.Errorf("after full run fired = %d, want 10", fired)
	}
	if end != units.Time(10*units.Second) {
		t.Errorf("end = %v, want 10s", end)
	}
}

func TestTimerCancel(t *testing.T) {
	s := New()
	fired := false
	tm := s.After(units.Second, func(*Simulator) { fired = true })
	if !tm.Cancel() {
		t.Error("first Cancel returned false")
	}
	if tm.Cancel() {
		t.Error("second Cancel returned true")
	}
	s.Run(0)
	if fired {
		t.Error("canceled event fired")
	}
}

func TestEveryTicksAndCancel(t *testing.T) {
	s := New()
	var ticks []units.Time
	var tm Timer
	tm = s.Every(10*units.Millisecond, func(sim *Simulator) {
		ticks = append(ticks, sim.Now())
		if len(ticks) == 5 {
			tm.Cancel()
		}
	})
	s.Run(units.Time(units.Second))
	if len(ticks) != 5 {
		t.Fatalf("got %d ticks, want 5", len(ticks))
	}
	for i, tk := range ticks {
		want := units.Time(units.Duration(i+1) * 10 * units.Millisecond)
		if tk != want {
			t.Errorf("tick %d at %v, want %v", i, tk, want)
		}
	}
}

func TestEveryNonPositivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Every(0) did not panic")
		}
	}()
	New().Every(0, func(*Simulator) {})
}

func TestStopDiscardsQueue(t *testing.T) {
	s := New()
	fired := 0
	s.At(1, func(sim *Simulator) { fired++; sim.Stop() })
	s.At(2, func(*Simulator) { fired++ })
	s.Run(0)
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if s.Pending() != 0 {
		t.Errorf("pending = %d after Stop, want 0", s.Pending())
	}
}

func TestCascadingEvents(t *testing.T) {
	s := New()
	depth := 0
	var recurse Event
	recurse = func(sim *Simulator) {
		depth++
		if depth < 100 {
			sim.After(units.Microsecond, recurse)
		}
	}
	s.After(0, recurse)
	s.Run(0)
	if depth != 100 {
		t.Errorf("depth = %d, want 100", depth)
	}
	if s.Fired() != 100 {
		t.Errorf("fired = %d, want 100", s.Fired())
	}
}

// Property: for any set of delays, events fire in nondecreasing time order
// and the clock ends at the maximum delay.
func TestQuickOrderProperty(t *testing.T) {
	f := func(delays []uint32) bool {
		s := New()
		var fireTimes []units.Time
		max := units.Time(0)
		for _, d := range delays {
			at := units.Time(d)
			if at > max {
				max = at
			}
			s.At(at, func(sim *Simulator) { fireTimes = append(fireTimes, sim.Now()) })
		}
		s.Run(0)
		if !sort.SliceIsSorted(fireTimes, func(i, j int) bool { return fireTimes[i] < fireTimes[j] }) {
			return false
		}
		if len(delays) > 0 && s.Now() != max {
			return false
		}
		return len(fireTimes) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: interleaving schedule/cancel operations never loses a live event
// and never fires a dead one.
func TestQuickCancelProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		live := 0
		fired := 0
		for i := 0; i < int(n); i++ {
			tm := s.At(units.Time(rng.Intn(1000)), func(*Simulator) { fired++ })
			if rng.Intn(2) == 0 {
				tm.Cancel()
			} else {
				live++
			}
		}
		s.Run(0)
		return fired == live
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// A canceled timer must not occupy heap memory until its firing time: once
// canceled events outnumber live ones the queue compacts, so Pending()
// shrinks long before the clock reaches the canceled instants.
func TestMassCancellationReapsQueue(t *testing.T) {
	s := New()
	const n = 1024
	timers := make([]Timer, 0, n)
	for i := 0; i < n; i++ {
		// Far-future events: without reaping these would linger for hours of
		// virtual time.
		timers = append(timers, s.At(units.Time(units.Duration(i+1)*60*units.Second), func(*Simulator) {}))
	}
	if s.Pending() != n {
		t.Fatalf("pending = %d, want %d", s.Pending(), n)
	}
	for _, tm := range timers {
		tm.Cancel()
	}
	if s.Pending() >= n/2 {
		t.Errorf("pending = %d after canceling all %d events; reaping did not shrink the queue", s.Pending(), n)
	}
	s.Run(0)
	if got := s.Fired(); got != 0 {
		t.Errorf("fired %d canceled events", got)
	}
}

// Reaping must not disturb live events: cancel every other timer in bulk and
// verify the survivors still fire, in order, exactly once.
func TestReapPreservesLiveEvents(t *testing.T) {
	s := New()
	const n = 500
	var fired []int
	timers := make([]Timer, n)
	for i := 0; i < n; i++ {
		i := i
		timers[i] = s.At(units.Time(units.Duration(i+1)*units.Second), func(*Simulator) { fired = append(fired, i) })
	}
	for i := 0; i < n; i += 2 {
		timers[i].Cancel()
	}
	s.Run(0)
	if len(fired) != n/2 {
		t.Fatalf("fired %d events, want %d", len(fired), n/2)
	}
	for j, i := range fired {
		if i != 2*j+1 {
			t.Fatalf("fired[%d] = %d, want %d", j, i, 2*j+1)
		}
	}
}

// A Timer handle must go stale once its event fires, even if the slab slot
// is recycled for a new event: canceling the old handle is a no-op and the
// new occupant still fires.
func TestStaleHandleAfterSlotReuse(t *testing.T) {
	s := New()
	firstFired, secondFired := false, false
	old := s.At(units.Time(units.Second), func(*Simulator) { firstFired = true })
	s.Run(0)
	if !firstFired {
		t.Fatal("first event did not fire")
	}
	// The freed slot is recycled for the next event.
	s.At(units.Time(2*units.Second), func(*Simulator) { secondFired = true })
	if old.Cancel() {
		t.Error("stale handle reported a pending cancel")
	}
	s.Run(0)
	if !secondFired {
		t.Error("stale handle canceled the slot's new occupant")
	}
}

// An Every timer recycles one slab slot forever, and canceling it before a
// pending tick removes that tick from the queue.
func TestEveryCancelBeforeFirstTick(t *testing.T) {
	s := New()
	tm := s.Every(units.Second, func(*Simulator) { t.Error("canceled ticker fired") })
	if !tm.Cancel() {
		t.Error("Cancel on pending ticker returned false")
	}
	s.Run(0)
	if s.Fired() != 0 {
		t.Errorf("fired = %d, want 0", s.Fired())
	}
}

// Steady-state event dispatch must not allocate: once the slab has grown to
// the working set, schedule/fire cycles recycle slots.
func TestSteadyStateDispatchDoesNotAllocate(t *testing.T) {
	s := New()
	var step Event
	n := 0
	step = func(sim *Simulator) {
		n++
		if n < 10_000 {
			sim.After(units.Microsecond, step)
		}
	}
	// Warm up: grow the slab and heap to their steady-state size.
	s.After(units.Microsecond, step)
	s.Run(0)
	avg := testing.AllocsPerRun(100, func() {
		n = 0
		s.After(units.Microsecond, step)
		s.Run(0)
	})
	// 10k events per run; anything beyond stray noise means per-event
	// allocation crept back in.
	if avg > 3 {
		t.Errorf("steady-state run allocated %.1f objects per 10k events", avg)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New()
		for j := 0; j < 1000; j++ {
			s.At(units.Time(j%97), func(*Simulator) {})
		}
		s.Run(0)
	}
}

func TestDuringChaosWindow(t *testing.T) {
	s := New()
	var order []string
	s.During(units.Time(units.Second), units.Time(3*units.Second),
		func(sim *Simulator) { order = append(order, "begin") },
		func(sim *Simulator) { order = append(order, "end") })
	s.At(units.Time(2*units.Second), func(*Simulator) { order = append(order, "mid") })
	s.Run(0)
	if len(order) != 3 || order[0] != "begin" || order[1] != "mid" || order[2] != "end" {
		t.Errorf("interval events fired as %v, want [begin mid end]", order)
	}
}

func TestDuringInvertedIntervalPanicsLikeFailedPrecondition(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("inverted During interval did not panic")
		}
	}()
	s := New()
	s.During(units.Time(2*units.Second), units.Time(units.Second),
		func(*Simulator) {}, func(*Simulator) {})
}
