package raycast

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"vizsched/internal/img"
	"vizsched/internal/volume"
)

func TestVec3Ops(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, 5, 6}
	if a.Add(b) != (Vec3{5, 7, 9}) {
		t.Error("Add")
	}
	if b.Sub(a) != (Vec3{3, 3, 3}) {
		t.Error("Sub")
	}
	if a.Scale(2) != (Vec3{2, 4, 6}) {
		t.Error("Scale")
	}
	if a.Dot(b) != 32 {
		t.Error("Dot")
	}
	if c := (Vec3{1, 0, 0}).Cross(Vec3{0, 1, 0}); c != (Vec3{0, 0, 1}) {
		t.Errorf("Cross = %v", c)
	}
	if n := (Vec3{3, 0, 4}).Normalize(); math.Abs(n.Len()-1) > 1e-12 {
		t.Error("Normalize length")
	}
	if z := (Vec3{}).Normalize(); z != (Vec3{}) {
		t.Error("zero Normalize changed value")
	}
}

func TestIntersectAABB(t *testing.T) {
	lo, hi := Vec3{0, 0, 0}, Vec3{1, 1, 1}
	// Straight-on hit through the cube center.
	r := Ray{Origin: Vec3{0.5, 0.5, -1}, Dir: Vec3{0, 0, 1}}
	tmin, tmax, hit := intersectAABB(r, lo, hi)
	if !hit || math.Abs(tmin-1) > 1e-12 || math.Abs(tmax-2) > 1e-12 {
		t.Errorf("hit=%v tmin=%v tmax=%v", hit, tmin, tmax)
	}
	// Miss.
	r = Ray{Origin: Vec3{5, 5, -1}, Dir: Vec3{0, 0, 1}}
	if _, _, hit := intersectAABB(r, lo, hi); hit {
		t.Error("expected miss")
	}
	// Origin inside: tmin clamps to 0.
	r = Ray{Origin: Vec3{0.5, 0.5, 0.5}, Dir: Vec3{0, 0, 1}}
	tmin, tmax, hit = intersectAABB(r, lo, hi)
	if !hit || tmin != 0 || math.Abs(tmax-0.5) > 1e-12 {
		t.Errorf("inside: hit=%v tmin=%v tmax=%v", hit, tmin, tmax)
	}
	// Parallel ray outside a slab.
	r = Ray{Origin: Vec3{2, 0.5, -1}, Dir: Vec3{0, 0, 1}}
	if _, _, hit := intersectAABB(r, lo, hi); hit {
		t.Error("parallel outside slab should miss")
	}
}

// Property: whenever intersectAABB reports a hit, the entry and exit points
// lie on or inside the box.
func TestQuickAABBHitPointsInside(t *testing.T) {
	lo, hi := Vec3{0, 0, 0}, Vec3{1, 1, 1}
	inside := func(p Vec3) bool {
		const eps = 1e-9
		return p.X >= -eps && p.X <= 1+eps && p.Y >= -eps && p.Y <= 1+eps && p.Z >= -eps && p.Z <= 1+eps
	}
	f := func(ox, oy, oz, dx, dy, dz int8) bool {
		dir := Vec3{float64(dx), float64(dy), float64(dz)}
		if dir.Len() == 0 {
			return true
		}
		r := Ray{Origin: Vec3{float64(ox) / 32, float64(oy) / 32, float64(oz) / 32}, Dir: dir.Normalize()}
		tmin, tmax, hit := intersectAABB(r, lo, hi)
		if !hit {
			return true
		}
		if tmax < tmin {
			return false
		}
		return inside(r.Origin.Add(r.Dir.Scale(tmin))) && inside(r.Origin.Add(r.Dir.Scale(tmax)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCameraRaysPointForward(t *testing.T) {
	cam := NewCamera(0.7, 0.3, 2.2)
	fwd := cam.LookAt.Sub(cam.Eye).Normalize()
	for _, uv := range [][2]float64{{0.5, 0.5}, {0, 0}, {1, 1}, {0.25, 0.9}} {
		r := cam.RayThrough(uv[0], uv[1], 1)
		if r.Dir.Dot(fwd) <= 0 {
			t.Errorf("ray at %v points backward", uv)
		}
		if math.Abs(r.Dir.Len()-1) > 1e-9 {
			t.Errorf("ray at %v not normalized", uv)
		}
	}
	// Center ray goes straight at the look-at point.
	r := cam.RayThrough(0.5, 0.5, 1)
	if r.Dir.Sub(fwd).Len() > 1e-9 {
		t.Error("center ray deviates from forward")
	}
}

func TestPiecewiseLookup(t *testing.T) {
	p := Piecewise{Points: []ControlPoint{
		{V: 0.2, R: 0, A: 0},
		{V: 0.8, R: 1, A: 0.6},
	}}
	// Clamping below and above.
	if r, _, _, a := p.Lookup(0); r != 0 || a != 0 {
		t.Error("below-range lookup")
	}
	if r, _, _, a := p.Lookup(1); r != 1 || a != 0.6 {
		t.Error("above-range lookup")
	}
	// Midpoint interpolates.
	r, _, _, a := p.Lookup(0.5)
	if math.Abs(float64(r)-0.5) > 1e-6 || math.Abs(float64(a)-0.3) > 1e-6 {
		t.Errorf("mid lookup r=%v a=%v", r, a)
	}
	// Empty TF is transparent.
	var empty Piecewise
	if _, _, _, a := empty.Lookup(0.5); a != 0 {
		t.Error("empty TF not transparent")
	}
}

func TestLUTMatchesSource(t *testing.T) {
	lut := Bake(DefaultTF)
	for _, v := range []float32{0, 0.1, 0.33, 0.5, 0.77, 1} {
		lr, lg, lb, la := lut.Lookup(v)
		r, g, b, a := DefaultTF.Lookup(v)
		if math.Abs(float64(lr-r)) > 0.01 || math.Abs(float64(lg-g)) > 0.01 ||
			math.Abs(float64(lb-b)) > 0.01 || math.Abs(float64(la-a)) > 0.01 {
			t.Errorf("LUT diverges at %v", v)
		}
	}
	// Out-of-range lookups clamp rather than panic.
	lut.Lookup(-1)
	lut.Lookup(2)
}

func TestPresetTF(t *testing.T) {
	for _, name := range []string{"plume", "combustion", "supernova"} {
		if PresetTF(name) == nil {
			t.Errorf("no preset for %s", name)
		}
	}
	if PresetTF("unknown") == nil {
		t.Error("no fallback TF")
	}
}

func TestRenderFullProducesVisibleImage(t *testing.T) {
	g := volume.Generate(volume.Supernova, 32, 32, 32)
	cam := NewCamera(0.6, 0.4, 2.4)
	m := RenderFull(g, cam, PresetTF("supernova"), Options{Width: 64, Height: 64})
	if l := m.Luminance(); l <= 0.005 {
		t.Errorf("rendered image too dark: luminance=%v", l)
	}
	// Corner pixels should be transparent (rays miss the cube or hit air).
	if c := m.At(0, 0); c.A > 0.5 {
		t.Errorf("corner pixel unexpectedly opaque: %+v", c)
	}
}

func TestRenderDeterministicAndParallelMatches(t *testing.T) {
	g := volume.Generate(volume.Plume, 24, 24, 24)
	cam := NewCamera(1.1, 0.2, 2.5)
	opt := Options{Width: 48, Height: 48}
	a := RenderFull(g, cam, PresetTF("plume"), opt)
	b := RenderFull(g, cam, PresetTF("plume"), opt)
	if img.MaxDiff(a, b) != 0 {
		t.Error("sequential render not deterministic")
	}
	opt.Parallel = true
	c := RenderFull(g, cam, PresetTF("plume"), opt)
	if d := img.MaxDiff(a, c); d > 1e-6 {
		t.Errorf("parallel render differs by %v", d)
	}
}

func TestRenderShadingChangesImage(t *testing.T) {
	g := volume.Generate(volume.Supernova, 24, 24, 24)
	cam := NewCamera(0.6, 0.4, 2.4)
	flat := RenderFull(g, cam, PresetTF("supernova"), Options{Width: 32, Height: 32})
	lit := RenderFull(g, cam, PresetTF("supernova"), Options{Width: 32, Height: 32, Shading: true})
	if img.MaxDiff(flat, lit) == 0 {
		t.Error("shading had no effect")
	}
}

// Rendering a brick decomposition and compositing the slabs front-to-back
// must match rendering the whole volume in one pass (modulo sampling at the
// brick seams).
func TestBrickedRenderMatchesMonolithic(t *testing.T) {
	g := volume.Generate(volume.Supernova, 32, 32, 32)
	cam := &Camera{Eye: Vec3{0.5, 0.5, -1.8}, LookAt: Vec3{0.5, 0.5, 0.5}, Up: Vec3{0, 1, 0}, FovY: 45 * math.Pi / 180}
	tf := PresetTF("supernova")
	opt := Options{Width: 40, Height: 40, Step: 1.0 / 256}

	whole := RenderFull(g, cam, tf, opt)

	boxes := volume.BrickZ(g.Dims, 4)
	frags := make([]*Fragment, len(boxes))
	for i, box := range boxes {
		frags[i] = RenderBrick(MakeBrick(g, box), cam, tf, opt)
	}
	// Camera looks down +z, so bricks are already front-to-back; composite
	// back-to-front accumulating over.
	acc := img.New(opt.Width, opt.Height)
	for i := len(frags) - 1; i >= 0; i-- {
		acc.CompositeOver(frags[i].Image)
	}
	if d := img.MaxDiff(whole, acc); d > 0.02 {
		t.Errorf("bricked composite differs from monolithic by %v", d)
	}
	// Depths must increase with z for this camera.
	for i := 1; i < len(frags); i++ {
		if frags[i].Depth <= frags[i-1].Depth {
			t.Errorf("fragment depths not increasing: %v then %v", frags[i-1].Depth, frags[i].Depth)
		}
	}
}

func TestDiffuseShadingBounds(t *testing.T) {
	light := Vec3{0, -1, 0}
	if s := diffuse(Vec3{}, light); s != 1 {
		t.Errorf("zero gradient shade = %v, want 1", s)
	}
	for _, g := range []Vec3{{0, 5, 0}, {1, 2, 3}, {-1, 0, 0}} {
		s := diffuse(g, light)
		if s < 0.3 || s > 1 {
			t.Errorf("shade(%v) = %v out of [0.3,1]", g, s)
		}
	}
}

func BenchmarkRenderFull64(b *testing.B) {
	g := volume.Generate(volume.Supernova, 32, 32, 32)
	cam := NewCamera(0.6, 0.4, 2.4)
	tf := PresetTF("supernova")
	opt := Options{Width: 64, Height: 64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RenderFull(g, cam, tf, opt)
	}
}

func TestRenderModesDiffer(t *testing.T) {
	g := volume.Generate(volume.Supernova, 24, 24, 24)
	cam := NewCamera(0.6, 0.4, 2.4)
	tf := PresetTF("supernova")
	base := Options{Width: 32, Height: 32}

	composite := RenderFull(g, cam, tf, base)
	mipOpt := base
	mipOpt.Mode = ModeMIP
	mip := RenderFull(g, cam, tf, mipOpt)
	isoOpt := base
	isoOpt.Mode = ModeIso
	isoOpt.IsoValue = 0.4
	iso := RenderFull(g, cam, tf, isoOpt)

	if img.MaxDiff(composite, mip) == 0 {
		t.Error("MIP identical to composite")
	}
	if img.MaxDiff(composite, iso) == 0 {
		t.Error("iso identical to composite")
	}
	if mip.Luminance() <= 0 {
		t.Error("MIP produced a black image")
	}
	// Iso pixels are either fully opaque (surface hit) or fully transparent.
	for _, p := range iso.Pix {
		if p.A != 0 && p.A != 1 {
			t.Fatalf("iso pixel alpha = %v, want 0 or 1", p.A)
		}
	}
}

func TestIsoValueChangesSurface(t *testing.T) {
	g := volume.Generate(volume.Supernova, 24, 24, 24)
	cam := NewCamera(0.6, 0.4, 2.4)
	tf := PresetTF("supernova")
	lo := Options{Width: 32, Height: 32, Mode: ModeIso, IsoValue: 0.2}
	hi := Options{Width: 32, Height: 32, Mode: ModeIso, IsoValue: 0.8}
	a := RenderFull(g, cam, tf, lo)
	b := RenderFull(g, cam, tf, hi)
	// A lower threshold encloses more volume: more surface pixels.
	count := func(m *img.Image) int {
		n := 0
		for _, p := range m.Pix {
			if p.A == 1 {
				n++
			}
		}
		return n
	}
	if count(a) <= count(b) {
		t.Errorf("iso 0.2 covers %d px, iso 0.8 covers %d px; want more at lower threshold", count(a), count(b))
	}
}

// One *Camera shared by concurrent renders, each fanning out into parallel
// bands and two of them at a different aspect ratio: the cached basis is
// resolved per render on a private copy, so nothing writes to the shared
// camera (run under -race) and every render sees its own aspect.
func TestSharedCameraParallelRenders(t *testing.T) {
	g := volume.Generate(volume.Supernova, 24, 24, 24)
	tf := PresetTF("supernova")
	sizes := [][2]int{{48, 48}, {64, 32}, {48, 48}, {32, 64}}
	want := make([]*img.Image, len(sizes))
	for i, s := range sizes {
		want[i] = RenderFull(g, NewCamera(0.9, 0.3, 2.4), tf, Options{Width: s[0], Height: s[1]})
	}
	shared := NewCamera(0.9, 0.3, 2.4) // never rendered with: its basis is unset
	got := make([]*img.Image, len(sizes))
	var wg sync.WaitGroup
	for i, s := range sizes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = RenderFull(g, shared, tf, Options{Width: s[0], Height: s[1], Parallel: true})
		}()
	}
	wg.Wait()
	for i := range sizes {
		if d := img.MaxDiff(want[i], got[i]); d != 0 {
			t.Errorf("render %d (%dx%d) through the shared camera differs by %v", i, sizes[i][0], sizes[i][1], d)
		}
	}
}

// A fragment image handed back with img.Put and drawn again by the next
// render must come out as if freshly allocated: pixels the new rays miss
// stay transparent rather than showing the previous view.
func TestRenderIntoRecycledImage(t *testing.T) {
	g := volume.Generate(volume.Plume, 24, 24, 24)
	tf := PresetTF("plume")
	opt := Options{Width: 40, Height: 40}
	views := []*Camera{NewCamera(0.2, 0.1, 2.2), NewCamera(2.9, -0.4, 3.5)}
	var want []*img.Image
	for _, cam := range views {
		want = append(want, RenderFull(g, cam, tf, opt).Clone())
	}
	for round := 0; round < 4; round++ {
		for i, cam := range views {
			m := RenderFull(g, cam, tf, opt)
			if d := img.MaxDiff(want[i], m); d != 0 {
				t.Fatalf("round %d view %d: recycled render differs by %v", round, i, d)
			}
			img.Put(m)
		}
	}
}
