package fracshare

import (
	"math"
	"math/rand"
	"testing"

	"vizsched/internal/units"
)

// ratePoint is one step of a piecewise-constant share schedule.
type ratePoint struct {
	at      units.Time
	share   float64
	penalty float64
}

// randomSchedule draws a monotone share schedule with grows, shrinks, and
// preemptions (share 0 spans).
func randomSchedule(rng *rand.Rand, steps int, span units.Duration) []ratePoint {
	pts := make([]ratePoint, 0, steps)
	at := units.Time(0)
	for i := 0; i < steps; i++ {
		at = at.Add(units.Duration(1 + rng.Int63n(int64(span))))
		share := rng.Float64()
		if rng.Intn(4) == 0 {
			share = 0 // preemption span
		}
		penalty := 1 + rng.Float64()*3
		if rng.Intn(3) == 0 {
			penalty = 1
		}
		pts = append(pts, ratePoint{at, share, penalty})
	}
	return pts
}

// playOut applies the schedule and then runs the slot at full share until
// completion, returning the completion time.
func playOut(s *Slot, pts []ratePoint, start units.Time) units.Time {
	now := start
	for _, p := range pts {
		now = p.at
		s.SetRate(now, p.share, p.penalty)
	}
	s.SetRate(now, 1, 1)
	rem, ok := s.Remaining(now)
	if !ok {
		panic("full-share slot reported suspended")
	}
	end := now.Add(rem)
	s.Finish(end)
	return end
}

// TestSlotFullShareLowerBound: however the share grows, shrinks, or preempts
// mid-task, a task can never complete earlier than its full-share execution
// time — the rate is capped at 1, so serving Total work takes at least Total.
func TestSlotFullShareLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		total := units.Duration(1+rng.Int63n(int64(10*units.Second))) + units.Millisecond
		s := NewSlot(total, 0)
		pts := randomSchedule(rng, 1+rng.Intn(12), 100*units.Millisecond)
		end := playOut(&s, pts, 0)
		if end < units.Time(total) {
			t.Fatalf("trial %d: completed at %v, before full-share lower bound %v (schedule %+v)",
				trial, end, total, pts)
		}
	}
}

// TestSlotRepriceOrderIndependent: interleaving redundant accounting calls
// (Remaining probes, re-asserting the current rate) at arbitrary
// intermediate times must not change the completion time — the account
// depends only on the piecewise-constant rate function.
func TestSlotRepriceOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		total := units.Duration(1+rng.Int63n(int64(5*units.Second))) + units.Millisecond
		pts := randomSchedule(rng, 1+rng.Intn(10), 50*units.Millisecond)

		clean := NewSlot(total, 0)
		endClean := playOut(&clean, pts, 0)

		// Same schedule, but with redundant probes and re-prices injected
		// between every pair of steps.
		noisy := NewSlot(total, 0)
		now := units.Time(0)
		last := ratePoint{0, 0, 1}
		for _, p := range pts {
			for j := 0; j < rng.Intn(4); j++ {
				mid := now.Add(units.Duration(rng.Int63n(int64(p.at-now) + 1)))
				switch rng.Intn(3) {
				case 0:
					noisy.Remaining(mid)
				case 1:
					noisy.SetRate(mid, last.share, last.penalty) // re-assert
				case 2:
					noisy.Finished(mid)
				}
			}
			now = p.at
			noisy.SetRate(now, p.share, p.penalty)
			last = p
		}
		noisy.SetRate(now, 1, 1)
		rem, ok := noisy.Remaining(now)
		if !ok {
			t.Fatalf("trial %d: full-share slot suspended", trial)
		}
		endNoisy := now.Add(rem)

		// Redundant probes advance the float account in extra steps, so allow
		// one virtual-time unit of accumulated rounding per re-price.
		if d := endClean.Sub(endNoisy); d < -64 || d > 64 {
			t.Fatalf("trial %d: completion depends on accounting call order: clean %v vs noisy %v",
				trial, endClean, endNoisy)
		}
	}
}

// TestSlotPreemptResumeExact: a preemption span (share 0) freezes progress
// exactly — the remaining work before and after the span is identical, and
// the completion shifts by exactly the span length.
func TestSlotPreemptResumeExact(t *testing.T) {
	total := units.Duration(2 * units.Second)
	base := NewSlot(total, 0)
	base.SetRate(0, 0.5, 1)
	remBefore, _ := base.Remaining(units.Time(units.Second))

	s := NewSlot(total, 0)
	s.SetRate(0, 0.5, 1)
	s.SetRate(units.Time(units.Second), 0, 1) // preempt
	if !s.Suspended() {
		t.Fatal("share 0 did not suspend the slot")
	}
	if _, ok := s.Remaining(units.Time(3 * units.Second)); ok {
		t.Fatal("suspended slot reported a completion time")
	}
	s.SetRate(units.Time(3*units.Second), 0.5, 1) // resume after 2s pause
	remAfter, ok := s.Remaining(units.Time(3 * units.Second))
	if !ok {
		t.Fatal("resumed slot still suspended")
	}
	if remAfter != remBefore {
		t.Fatalf("preemption changed remaining work: %v before vs %v after", remBefore, remAfter)
	}
	if got := s.DoneWork(units.Time(3 * units.Second)); got != units.Duration(500*units.Millisecond) {
		t.Fatalf("done work across preemption = %v, want 500ms", got)
	}
}

// TestSlotDeterministicReplay: two slots fed bit-identical schedules produce
// bit-identical accounts — the determinism the DES leans on.
func TestSlotDeterministicReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		total := units.Duration(1 + rng.Int63n(int64(3*units.Second)))
		pts := randomSchedule(rng, 1+rng.Intn(8), 30*units.Millisecond)
		a, b := NewSlot(total, 0), NewSlot(total, 0)
		ea, eb := playOut(&a, pts, 0), playOut(&b, pts, 0)
		if ea != eb {
			t.Fatalf("trial %d: identical schedules diverged: %v vs %v", trial, ea, eb)
		}
	}
}

// TestSlotMatchesClosedForm: the slot's remaining work equals the direct
// integral of the rate function.
func TestSlotMatchesClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		total := units.Duration(int64(units.Second) + rng.Int63n(int64(20*units.Second)))
		pts := randomSchedule(rng, 1+rng.Intn(10), 200*units.Millisecond)
		s := NewSlot(total, 0)
		served := 0.0
		prev := ratePoint{0, 0, 1}
		now := units.Time(0)
		for _, p := range pts {
			r := prev.share
			if r > 1 {
				r = 1
			}
			pen := prev.penalty
			if pen < 1 {
				pen = 1
			}
			served += float64(p.at.Sub(now)) * (r / pen)
			now = p.at
			s.SetRate(now, p.share, p.penalty)
			prev = p
		}
		if served > float64(total) {
			served = float64(total)
		}
		want := float64(total) - served
		s.SetRate(now, 1, 1)
		rem, ok := s.Remaining(now)
		if !ok {
			t.Fatal("suspended at full share")
		}
		if math.Abs(float64(rem)-want) > math.Ceil(want*1e-12)+1 {
			t.Fatalf("trial %d: remaining %v, closed form %v", trial, rem, units.Duration(want))
		}
	}
}

// TestShareIOPenalty: contention is super-linear in the co-runner count and
// degenerates to fair sharing at γ = 1.
func TestShareIOPenalty(t *testing.T) {
	if got := IOPenalty(1, 1.5); got != 1 {
		t.Fatalf("solo I/O penalty = %v, want 1", got)
	}
	if got := IOPenalty(2, 1); got != 1 {
		t.Fatalf("γ=1 penalty = %v, want 1 (fair sharing)", got)
	}
	p2, p4 := IOPenalty(2, 1.5), IOPenalty(4, 1.5)
	if !(p2 > 1 && p4 > p2) {
		t.Fatalf("penalty not super-linear: 2→%v 4→%v", p2, p4)
	}
	// Aggregate I/O throughput falls as co-runners pile on: n×(1/n)/pen(n).
	if thr2, thr4 := 2*0.5/p2, 4*0.25/p4; !(thr2 < 1 && thr4 < thr2) {
		t.Fatalf("aggregate I/O throughput not decreasing: %v, %v", thr2, thr4)
	}
}

// TestShareMeterIntegrates: the meter's busy integral matches hand-computed
// piecewise spans and clamps shares into [0,1].
func TestShareMeterIntegrates(t *testing.T) {
	m := NewMeter(2)
	m.Set(0, 1, 0)
	m.Set(0, 0.5, units.Time(units.Second))
	m.Set(0, 2.0, units.Time(2*units.Second)) // clamps to 1
	m.Finish(units.Time(4 * units.Second))

	want := units.Duration(units.Second + units.Second/2 + 2*units.Second)
	if got := m.Busy(0); got != want {
		t.Fatalf("busy integral = %v, want %v", got, want)
	}
	if got := m.Fraction(0, units.Time(4*units.Second)); math.Abs(got-0.875) > 1e-12 {
		t.Fatalf("busy fraction = %v, want 0.875", got)
	}
	if got := m.Busy(1); got != 0 {
		t.Fatalf("idle node busy = %v, want 0", got)
	}
}

// TestShareConfigDefaults: nil and zero configs select the documented
// defaults, and negative CoShare disables co-scheduling.
func TestShareConfigDefaults(t *testing.T) {
	var nilCfg *Config
	if nilCfg.SlotCount() != DefaultSlots || nilCfg.Gamma() != DefaultIOGamma {
		t.Fatal("nil config does not select defaults")
	}
	if (&Config{}).CoShareValue() != DefaultCoShare {
		t.Fatal("zero CoShare does not select the default")
	}
	if (&Config{CoShare: -1}).CoShareValue() != 0 {
		t.Fatal("negative CoShare does not disable co-scheduling")
	}
	if (&Config{CoShare: 5}).CoShareValue() != 1 {
		t.Fatal("CoShare not clamped to 1")
	}
}
