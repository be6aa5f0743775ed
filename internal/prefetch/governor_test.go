package prefetch

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vizsched/internal/units"
)

func TestGovernorBurstThenRefill(t *testing.T) {
	g := NewGovernor(2, 10*units.MB, 100*units.MB)

	// Full bucket at boot: a burst-sized grant succeeds, the next is denied.
	if !g.Allow(0, 100*units.MB, at(0)) {
		t.Fatal("boot burst denied")
	}
	if g.Allow(0, units.MB, at(0)) {
		t.Fatal("empty bucket granted")
	}
	// Node 1's bucket is independent.
	if !g.Allow(1, 50*units.MB, at(0)) {
		t.Fatal("independent bucket denied")
	}
	// 3 s refill at 10 MB/s: 30 MB available, 31 MB denied.
	if g.Allow(0, 31*units.MB, at(3)) {
		t.Fatal("granted more than rate*dt after drain")
	}
	if !g.Allow(0, 30*units.MB, at(3)) {
		t.Fatal("denied exactly rate*dt after drain")
	}
}

func TestGovernorOversizeAlwaysDenied(t *testing.T) {
	g := NewGovernor(1, units.MB, 10*units.MB)
	if g.Allow(0, 11*units.MB, at(1e6)) {
		t.Fatal("granted a request larger than burst")
	}
}

func TestGovernorSubSecondRefill(t *testing.T) {
	g := NewGovernor(1, 100*units.MB, 100*units.MB)
	if !g.Allow(0, 100*units.MB, at(0)) {
		t.Fatal("boot burst denied")
	}
	// 250 ms at 100 MB/s = 25 MB.
	if g.Allow(0, 26*units.MB, at(0.25)) {
		t.Fatal("sub-second refill over-credited")
	}
	if !g.Allow(0, 25*units.MB, at(0.25)) {
		t.Fatal("sub-second refill under-credited")
	}
}

func TestGovernorHugeGapNoOverflow(t *testing.T) {
	g := NewGovernor(1, units.GB, 4*units.GB)
	g.Allow(0, 4*units.GB, at(0))
	// A gap of ~292 years of virtual time must clamp at burst, not overflow.
	far := units.Time(math.MaxInt64 - 1)
	if got := g.Available(0, far); got != 4*units.GB {
		t.Fatalf("available after huge gap = %v, want burst", got)
	}
}

// The no-starvation property: over any prefix of any request sequence with
// monotone timestamps, total granted bytes per node never exceed
// burst + rate * elapsed — demand I/O always keeps at least the residual
// bandwidth. This is the acceptance property from §5.8.
func TestGovernorNoStarvationProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rate := units.Bytes(1+rng.Intn(256)) * units.MB
		burst := rate * units.Bytes(1+rng.Intn(8))
		g := NewGovernor(1, rate, burst)
		now := units.Time(0)
		granted := units.Bytes(0)
		for i := 0; i < 200; i++ {
			now += units.Time(rng.Int63n(int64(units.Second) / 2))
			size := units.Bytes(1+rng.Intn(int(2*burst/units.MB))) * units.MB / 2
			if g.Allow(0, size, now) {
				granted += size
			}
			elapsed := float64(now) / float64(units.Second)
			cap := float64(burst) + float64(rate)*elapsed
			if float64(granted) > cap+1 {
				t.Logf("seed %d: granted %d > burst+rate*t %.0f at t=%v", seed, granted, cap, now)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
