package raycast

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"vizsched/internal/img"
	"vizsched/internal/volume"
)

// liveStepRatios are the step ratios of the default step on the datasets
// the live service and its benchmark render: 48³ (8/3), 32³ (4), 64³ (2).
var liveStepRatios = []float64{8.0 / 3, 4, 2}

// fastOpacity is what the march computes for a sample of alpha a at step
// ratio e: the table's answer where e has one, opacityCorrect's elsewhere.
func fastOpacity(a float32, e float64) float32 {
	if t := opacityTableFor(e); t != nil {
		return t.correct(a)
	}
	return opacityCorrect(a, e)
}

// opacityMismatch describes how fastOpacity differs from opacityCorrect at
// (a, e), or returns "" when the two agree bit for bit.
func opacityMismatch(a float32, e float64) string {
	got, want := fastOpacity(a, e), opacityCorrect(a, e)
	if math.Float32bits(got) == math.Float32bits(want) {
		return ""
	}
	return fmt.Sprintf("e=%v a=%v (%#08x): got %v (%#08x), want %v (%#08x)",
		e, a, math.Float32bits(a), got, math.Float32bits(got), want, math.Float32bits(want))
}

// TestOpacityTableExact holds the fast path to opacityCorrect bit for bit
// at the live step ratios: over a strided walk of every float32 alpha the
// table covers, at every knot ± 4 ulps, at the ends of the covered range
// and at the alphas it leaves to opacityCorrect. It also measures the
// table's error against math.Pow and requires it inside the derived bound.
func TestOpacityTableExact(t *testing.T) {
	const stride = 97 // odd, so the walk visits every residue of the low bits
	specials := []float32{
		float32(math.NaN()), math.Float32frombits(0xffc00001), 0, float32(math.Copysign(0, -1)),
		-1e-30, -0.5, -1, float32(math.Inf(-1)), math.SmallestNonzeroFloat32,
		1, math.Nextafter32(1, 0), math.Nextafter32(1, 2), 1.5, 2, float32(math.Inf(1)), math.MaxFloat32,
		opacityMin, math.Nextafter32(opacityMin, 0), opacityMax, math.Nextafter32(opacityMax, 0),
	}
	for _, e := range liveStepRatios {
		tab := opacityTableFor(e)
		if tab == nil {
			t.Fatalf("e=%v: no table; the live step ratios must have one", e)
		}
		bad := 0
		check := func(a float32) {
			if d := opacityMismatch(a, e); d != "" {
				if bad++; bad <= 5 {
					t.Error(d)
				}
			}
		}
		var worst float64
		for b := math.Float32bits(opacityMin); b < math.Float32bits(opacityMax); b += stride {
			a := math.Float32frombits(b)
			check(a)
			worst = math.Max(worst, math.Abs(tab.pow(a)-math.Pow(1-float64(a), e)))
		}
		for k := 0; k <= opacityPieces; k++ {
			below, above := float32(k)/opacityScale, float32(k)/opacityScale
			check(below)
			for i := 0; i < 4; i++ {
				below, above = math.Nextafter32(below, 0), math.Nextafter32(above, 1)
				check(below)
				check(above)
			}
		}
		for _, a := range specials {
			check(a)
		}
		if bound := opacityBound(e); !(worst <= bound) {
			t.Errorf("e=%v: table misses Pow by %.3g, above its derived bound %.3g", e, worst, bound)
		} else {
			t.Logf("e=%v: worst table error %.3g, derived bound %.3g, window M %.3g", e, worst, bound, opacityMargin)
		}
		if bad > 0 {
			t.Errorf("e=%v: %d alphas differ from opacityCorrect", e, bad)
		}
	}
}

// TestOpacityTableOnlyWhereCertified: a table exists exactly for the step
// ratios whose derived error bound is within M/8, and never for e = 1 (Pow
// already returns its base), large, non-positive or non-finite ratios.
func TestOpacityTableOnlyWhereCertified(t *testing.T) {
	for _, e := range append([]float64{3, 1e-3}, liveStepRatios...) {
		if b := opacityBound(e); !(b <= opacityMargin/8) || newOpacityTable(e) == nil {
			t.Errorf("e=%v: bound %.3g against M/8 = %.3g, want a table", e, b, opacityMargin/8)
		}
	}
	for _, e := range []float64{1, 0.75, 1.5, 5, 8, 64, 1e300, 0, -2, math.Inf(1), math.Inf(-1), math.NaN()} {
		if tab := newOpacityTable(e); tab != nil {
			t.Errorf("e=%v: got a table; its bound %.3g is not within M/8 = %.3g", e, opacityBound(e), opacityMargin/8)
		}
		if tab := opacityTableFor(e); tab != nil {
			t.Errorf("e=%v: the cache handed out a table", e)
		}
	}
}

// TestOpacityTablesBounded renders one brick at 100 distinct Options.Step
// values from four goroutines — under -race, the cache's concurrency check —
// and holds every frame to the reference bit for bit. The cache is a fixed
// array of slots, so it stays bounded; what is left in it must be whole
// tables, each the one its ratio builds.
func TestOpacityTablesBounded(t *testing.T) {
	g := volume.Generate(volume.Supernova, 16, 16, 16)
	b := MakeBrick(g, volume.BrickZ(g.Dims, 2)[1])
	cam := NewCamera(0.7, 0.4, 1.9)
	ramp := prepared("ramp", Piecewise{Points: []ControlPoint{
		{V: 0, A: 0}, {V: 0.2, R: 0.2, G: 0.4, B: 1, A: 0.01}, {V: 0.6, R: 1, G: 0.6, B: 0.2, A: 0.9}, {V: 1, R: 1, G: 1, B: 1, A: 1}}})
	const steps = 100
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < steps; i += 4 {
				e := 2 + float64(i)/50 // 2 … 3.98, every one tabled
				opt := Options{Width: 16, Height: 16, Step: e / 256}
				if opacityTableFor(e) == nil {
					t.Errorf("e=%v: no table", e)
					return
				}
				want, _ := renderBrickReference(b, cam, ramp.ref, opt)
				f := RenderBrick(b, cam, ramp.fast, opt)
				if d := firstBitDiff(want, f.Image); d != "" {
					t.Errorf("step ratio %v: %s", e, d)
				}
				img.Put(f.Image)
			}
		}()
	}
	wg.Wait()
	for i := range opacityTables {
		if tab := opacityTables[i].Load(); tab != nil && *tab != *newOpacityTable(tab.e) {
			t.Errorf("slot %d: the table for e=%v is not the one that ratio builds", i, tab.e)
		}
	}
}

// TestTabledRenderMatchesReference is the renderer's bit-identity contract
// at the live step ratios, where the march corrects opacity by table, with
// transfer functions whose alphas span (0, 1] — past aMax, where the table
// defers to opacityCorrect.
func TestTabledRenderMatchesReference(t *testing.T) {
	g := volume.Generate(volume.Turbulence(5), 24, 24, 24)
	pairs := append(presetPairs(), adversarialPairs()...)
	pairs = append(pairs, prepared("ramp", Piecewise{Points: []ControlPoint{
		{V: 0, A: 0}, {V: 0.3, R: 0.1, G: 0.5, B: 1, A: 1e-6}, {V: 0.7, R: 1, G: 0.5, B: 0, A: 0.95}, {V: 1, R: 1, G: 1, B: 1, A: 1}}}))
	bricks := layouts(g)["slabs"] // rendered again and again: with macrocells after the first
	for v, e := range liveStepRatios {
		cam := NewCamera(0.4+2.1*float64(v), 0.3-0.4*float64(v), 1.8)
		for j, tf := range pairs {
			opt := Options{Width: 18, Height: 18, Step: e / 256, Shading: (v+j)%2 == 1}
			for i, b := range bricks {
				checkAgainstReference(t, fmt.Sprintf("e %v tf %s shading %v brick %d", e, tf.name, opt.Shading, i), b, cam, tf.ref, tf.fast, opt)
			}
		}
	}
}

// A render whose step ratio has a table allocates what any render does:
// the table lookup is a few atomic loads and allocates nothing.
func TestTabledRenderAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops images; the ceilings hold only without it")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g := volume.Generate(volume.Supernova, 24, 24, 24)
	b := MakeBrick(g, g.Bounds())
	cam := NewCamera(0.6, 0.3, 2.4)
	tf := PresetTF("supernova")
	for _, c := range []struct {
		parallel bool
		max      float64
	}{{false, 2}, {true, 4}} {
		opt := Options{Width: 32, Height: 32, Parallel: c.parallel, Step: 1.0 / 96} // e = 8/3
		img.Put(RenderBrick(b, cam, tf, opt).Image)
		img.Put(RenderBrick(b, cam, tf, opt).Image)
		got := testing.AllocsPerRun(20, func() { img.Put(RenderBrick(b, cam, tf, opt).Image) })
		if got > c.max {
			t.Errorf("parallel=%v: %v allocations a render, want at most %v", c.parallel, got, c.max)
		}
	}
}

// FuzzOpacityCorrect holds the fast path to opacityCorrect over arbitrary
// alphas and step ratios: at the alpha itself and at the knots of the piece
// it falls in, one ulp either side.
func FuzzOpacityCorrect(f *testing.F) {
	for _, e := range append([]float64{1, 0.75, 3, 5, math.NaN()}, liveStepRatios...) {
		for _, a := range []float32{0.01, 0.3, 0.6, opacityMax, 1e-7, 1} {
			f.Add(math.Float32bits(a), e)
		}
	}
	f.Fuzz(func(t *testing.T, aBits uint32, e float64) {
		a := math.Float32frombits(aBits)
		alphas := []float32{a}
		if a >= 0 && a < opacityMax {
			k := float32(math.Floor(float64(a) * opacityScale))
			for _, knot := range []float32{k / opacityScale, (k + 1) / opacityScale} {
				alphas = append(alphas, math.Nextafter32(knot, 0), knot, math.Nextafter32(knot, 1))
			}
		}
		for _, a := range alphas {
			if d := opacityMismatch(a, e); d != "" {
				t.Fatal(d)
			}
		}
	})
}
