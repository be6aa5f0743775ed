package metrics

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"vizsched/internal/units"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.N() != 0 || h.Quantile(0.5) != 0 {
		t.Error("empty histogram misbehaves")
	}
	if !strings.Contains(h.String(), "empty") {
		t.Error("String for empty")
	}
	if !strings.Contains(h.Render(8), "no samples") {
		t.Error("Render for empty")
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(1))
	samples := make([]units.Duration, 10000)
	for i := range samples {
		// Log-uniform from 10µs to 10s.
		exp := rng.Float64() * 6 // 10^1..10^7 µs
		d := units.Duration(10 * float64(units.Microsecond) * pow10(exp))
		samples[i] = d
		h.Add(d)
	}
	sort.Slice(samples, func(a, b int) bool { return samples[a] < samples[b] })
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		want := samples[int(q*float64(len(samples)-1))]
		got := h.Quantile(q)
		ratio := float64(got) / float64(want)
		// Bucketed quantiles must be within one bucket (~±10%).
		if ratio < 0.85 || ratio > 1.15 {
			t.Errorf("q=%v: got %v want %v (ratio %.3f)", q, got, want, ratio)
		}
	}
}

func pow10(x float64) float64 {
	r := 1.0
	for x >= 1 {
		r *= 10
		x--
	}
	if x > 0 {
		// Linear blend is plenty for test data generation.
		r *= 1 + 9*x
	}
	return r
}

func TestHistogramUnderflow(t *testing.T) {
	var h Histogram
	h.Add(units.Duration(10)) // 10ns: below the 1µs floor
	h.Add(2 * units.Second)
	if h.N() != 2 {
		t.Errorf("N = %d", h.N())
	}
	if h.Quantile(0) != 0 {
		t.Error("q0 should report the underflow as 0")
	}
	if h.Quantile(1) < units.Second {
		t.Errorf("q1 = %v", h.Quantile(1))
	}
}

func TestHistogramRender(t *testing.T) {
	var h Histogram
	for i := 0; i < 50; i++ {
		h.Add(units.Millisecond)
		h.Add(100 * units.Millisecond)
	}
	out := h.Render(8)
	if !strings.Contains(out, "#") {
		t.Errorf("render has no bars:\n%s", out)
	}
	lines := strings.Count(out, "\n")
	if lines > 10 {
		t.Errorf("render produced %d rows, want ≤ 10", lines)
	}
}

// Property: quantiles are monotone in q and bounded by observed extremes'
// buckets.
func TestQuickHistogramMonotone(t *testing.T) {
	f := func(raw []uint32, qa, qb uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		for _, r := range raw {
			h.Add(units.Duration(r%1e9) + units.Microsecond)
		}
		a := float64(qa%101) / 100
		b := float64(qb%101) / 100
		if a > b {
			a, b = b, a
		}
		return h.Quantile(a) <= h.Quantile(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
