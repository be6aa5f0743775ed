package des

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"vizsched/internal/units"
)

// streamScript is one scenario played twice, once with its stream's events
// queued by one At call each before anything else and once through Stream;
// both plays must fire the same events at the same instants.
type streamScript struct {
	times   []units.Time   // the stream's element times, non-decreasing
	ops     []byte         // what element i's callback does (see play)
	period  units.Duration // an Every tick's period; 0 for none
	fillers int            // events queued past the end that opCancelFillers cancels
	horizon units.Time     // the first Run's horizon; 0 runs to last()
}

// What a stream element's callback does, by ops[i] % nOps; ops[i] / nOps is
// the operation's argument.
const (
	opNone          = iota
	opAtLater       // an event at a later stream element's instant
	opSameInstant   // an event at now, behind the stream's equal-time entries
	opCancelFillers // cancel every filler: a reap once the heap holds 64
	opCancelTick    // cancel the Every tick
	opChain         // an event a few ms later that schedules one more at its instant
	opCancelLast    // cancel the last opAtLater event, if it is still pending
	opStop          // Stop, when the argument is 0
	nOps
)

type fired struct {
	label string
	at    units.Time
}

// playResult is what one play observed: the fire sequence (with a "horizon"
// entry where the first Run returned), the final clock and Fired count, and
// whether a cancel of the fillers left the heap compacted.
type playResult struct {
	log    []fired
	end    units.Time
	fired  uint64
	reaped bool
}

// last returns the instant the second Run stops at: past every event the
// script schedules, before the fillers.
func (sc streamScript) last() units.Time {
	var t units.Time
	if n := len(sc.times); n > 0 {
		t = sc.times[n-1]
	}
	return t.Add(units.Second)
}

func (sc streamScript) play(stream bool) playResult {
	s := New()
	var r playResult
	record := func(label string) Event {
		return func(sim *Simulator) { r.log = append(r.log, fired{label, sim.Now()}) }
	}
	var tick, later Timer
	var fillers []Timer
	element := func(sim *Simulator, i int) {
		r.log = append(r.log, fired{fmt.Sprintf("s%d", i), sim.Now()})
		op, arg := sc.ops[i]%nOps, int(sc.ops[i]/nOps)
		switch op {
		case opAtLater:
			if j := i + 1 + arg%4; j < len(sc.times) {
				later = sim.At(sc.times[j], record(fmt.Sprintf("later%d", i)))
			}
		case opSameInstant:
			sim.At(sim.Now(), record(fmt.Sprintf("now%d", i)))
		case opCancelFillers:
			for _, f := range fillers {
				f.Cancel()
			}
			if len(fillers) > 0 && sim.Pending() < len(fillers) {
				r.reaped = true
			}
		case opCancelTick:
			tick.Cancel()
		case opChain:
			sim.After(units.Duration(arg)*units.Millisecond, func(sim *Simulator) {
				r.log = append(r.log, fired{fmt.Sprintf("chain%d", i), sim.Now()})
				sim.At(sim.Now(), record(fmt.Sprintf("chained%d", i)))
			})
		case opCancelLast:
			later.Cancel()
		case opStop:
			if arg == 0 {
				sim.Stop()
			}
		}
	}
	if stream {
		s.Stream(len(sc.times), func(i int) units.Time { return sc.times[i] }, element)
	} else {
		for i, at := range sc.times {
			i := i
			s.At(at, func(sim *Simulator) { element(sim, i) })
		}
	}
	if sc.period > 0 {
		tick = s.Every(sc.period, record("tick"))
	}
	past := sc.last().Add(units.Second)
	for k := 0; k < sc.fillers; k++ {
		fillers = append(fillers, s.At(past.Add(units.Duration(k)), record(fmt.Sprintf("filler%d", k))))
	}
	horizon := sc.horizon
	if horizon == 0 {
		horizon = sc.last() // an uncanceled tick never drains the queue
	}
	s.Run(horizon)
	r.log = append(r.log, fired{"horizon", s.Now()})
	r.end = s.Run(sc.last())
	r.fired = s.Fired()
	return r
}

// check plays sc both ways and fails t on any difference.
func (sc streamScript) check(t *testing.T) playResult {
	t.Helper()
	want, got := sc.play(false), sc.play(true)
	if !slices.Equal(got.log, want.log) {
		t.Fatalf("stream fired\n%v\nup-front At fired\n%v", got.log, want.log)
	}
	if got.end != want.end || got.fired != want.fired {
		t.Fatalf("stream ended at %v after %d events, up-front At at %v after %d", got.end, got.fired, want.end, want.fired)
	}
	return got
}

// decodeStreamScript reads a script from bytes: small time steps (so equal
// times are common), an optional tick and fillers, an optional horizon, and
// one operation per element.
func decodeStreamScript(data []byte) streamScript {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	ms := units.Time(units.Millisecond)
	n := int(next()%48) + 1
	sc := streamScript{
		period:  units.Duration(next()%8) * units.Millisecond,
		fillers: int(next()%2) * 80,
		horizon: units.Time(next()%64) * ms,
	}
	at := units.Time(next()%4) * ms
	for i := 0; i < n; i++ {
		at += units.Time(next()%3) * ms
		sc.times = append(sc.times, at)
		sc.ops = append(sc.ops, next())
	}
	return sc
}

// TestStreamMatchesAt holds Stream to the up-front At calls it replaces:
// the same events at the same instants in the same order, over handlers
// that schedule at later stream entries' instants and at their own, an
// Every tick on the stream's instants, a bulk cancel that reaps the heap, a
// horizon that cuts the stream and a Stop inside a stream callback.
func TestStreamMatchesAt(t *testing.T) {
	ms := units.Time(units.Millisecond)
	op := func(kind, arg int) byte { return byte(kind + arg*nOps) }
	sc := streamScript{
		times: []units.Time{0, ms, ms, ms, 2 * ms, 3 * ms, 3 * ms, 5 * ms, 8 * ms, 8 * ms, 9 * ms, 12 * ms},
		ops: []byte{
			op(opAtLater, 2), op(opSameInstant, 0), op(opAtLater, 0), op(opChain, 0),
			op(opCancelFillers, 0), op(opChain, 2), op(opAtLater, 1), op(opCancelLast, 0),
			op(opSameInstant, 0), op(opCancelTick, 0), op(opAtLater, 0), op(opNone, 0),
		},
		period:  units.Millisecond,
		fillers: 80,
		horizon: 6 * ms,
	}
	r := sc.check(t)
	if !r.reaped {
		t.Error("canceling the fillers did not reap the heap")
	}
	cut := slices.Index(r.log, fired{"horizon", 6 * ms})
	if cut < 0 || !slices.Contains(r.log[:cut], fired{"s7", 5 * ms}) || !slices.Contains(r.log[cut:], fired{"s8", 8 * ms}) {
		t.Errorf("horizon did not cut the stream at 6ms: %v", r.log)
	}
	if !slices.Contains(r.log[cut:], fired{"s11", 12 * ms}) {
		t.Errorf("the run after the horizon did not finish the stream: %v", r.log)
	}
	for _, label := range []string{"tick", "later0", "now1", "chained3", "now8"} {
		if !slices.ContainsFunc(r.log, func(f fired) bool { return f.label == label }) {
			t.Errorf("script never fired %s: %v", label, r.log)
		}
	}

	// A Stop inside a stream callback drops the rest of the stream.
	sc.ops[6] = op(opStop, 0)
	sc.horizon = 0
	r = sc.check(t)
	if i := slices.IndexFunc(r.log, func(f fired) bool { return f.label == "s7" }); i >= 0 {
		t.Errorf("stream element after Stop fired: %v", r.log)
	}

	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 120)
	for k := 0; k < 300; k++ {
		rng.Read(data)
		decodeStreamScript(data).check(t)
	}
}

// FuzzStream plays scripts decoded from the input both ways; any difference
// in what fired, when, or in what order fails.
func FuzzStream(f *testing.F) {
	f.Add([]byte{11, 1, 1, 6, 0, 1, 1, 2, 0, 0, 0, 1, 3, 1, 5, 0, 4, 2, 1, 2, 7})
	f.Add([]byte{40, 3, 0, 0, 2, 0, 9, 0, 2, 0, 17, 1, 14, 0, 0, 0, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeStreamScript(data).check(t)
	})
}

func TestStreamDecreasingTimePanics(t *testing.T) {
	s := New()
	times := []units.Time{1, 3, 2}
	s.Stream(len(times), func(i int) units.Time { return times[i] }, func(*Simulator, int) {})
	defer func() {
		if recover() == nil {
			t.Error("a stream whose times decrease did not panic")
		}
	}()
	s.Run(0)
}

func TestStreamStartingBeforeNowPanics(t *testing.T) {
	s := New()
	s.At(5, func(sim *Simulator) {
		defer func() {
			if recover() == nil {
				t.Error("a stream starting before now did not panic")
			}
		}()
		sim.Stream(1, func(int) units.Time { return 4 }, func(*Simulator, int) {})
	})
	s.Run(0)
}

// A stream holds one heap slot, whatever its length, and its elements
// allocate nothing: the call's stream record and slot closure are all.
func TestStreamHoldsOneSlotAndDoesNotAllocate(t *testing.T) {
	const n = 10_000
	s := New()
	fired := 0
	s.Stream(n, func(i int) units.Time { return units.Time(i / 3) }, func(sim *Simulator, i int) {
		if sim.Pending() != 0 {
			t.Fatalf("element %d saw %d pending events, want 0", i, sim.Pending())
		}
		fired++
	})
	if s.Pending() != 1 {
		t.Fatalf("pending = %d after Stream(%d), want 1", s.Pending(), n)
	}
	s.Run(0)
	if fired != n {
		t.Fatalf("fired %d elements, want %d", fired, n)
	}
	var base units.Time
	at := func(i int) units.Time { return base + units.Time(i/3) }
	nop := func(*Simulator, int) {}
	avg := testing.AllocsPerRun(20, func() {
		base = s.Now()
		s.Stream(n, at, nop)
		s.Run(0)
	})
	if avg > 3 {
		t.Errorf("a %d-element stream allocated %.1f objects", n, avg)
	}
}
