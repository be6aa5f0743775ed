package raycast

import (
	"fmt"
	"image"
	"math"
	"math/rand"
	"runtime"
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
		w := cam.view(1)
		r := w.ray(uv[0], uv[1])
		if r.Dir.Dot(fwd) <= 0 {
			t.Errorf("ray at %v points backward", uv)
		}
		if math.Abs(r.Dir.Len()-1) > 1e-9 {
			t.Errorf("ray at %v not normalized", uv)
		}
	}
	// Center ray goes straight at the look-at point.
	w := cam.view(1)
	r := w.ray(0.5, 0.5)
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

// renderBrickReference is the renderer as it stood before the march loop was
// specialised: one straight loop, a Grid.Sample call per sample, the
// transfer function through its interface, no skipping. RenderBrick must
// return its pixels float32 for float32. It also counts the samples it took.
func renderBrickReference(b *Brick, cam *Camera, tf TransferFunc, opt Options) (*img.Image, int64) {
	out, samples, _ := referenceCounting(b, cam, tf, opt, nil)
	return out, samples
}

// skipRule says whether RenderBrick passes a sample without fetching it,
// from the sample's base and, for MIP, the running peak before it.
type skipRule func(x0, y0, z0 int, peak float32) bool

// referenceCounting is renderBrickReference that also counts the samples,
// on its own t sequence, that skip says a resident brick passes over. The
// rule only counts: the pixels do not depend on it.
func referenceCounting(b *Brick, cam *Camera, tf TransferFunc, opt Options, skip skipRule) (*img.Image, int64, int64) {
	opt.fill()
	out := img.New(opt.Width, opt.Height)
	lo, hi := b.WorldBounds()
	fd := b.FullDims
	voxel := func(p Vec3) (x, y, z float64) {
		return p.X*float64(fd[0]) - float64(b.GridOrigin[0]) - 0.5,
			p.Y*float64(fd[1]) - float64(b.GridOrigin[1]) - 0.5,
			p.Z*float64(fd[2]) - float64(b.GridOrigin[2]) - 0.5
	}
	sample := func(p Vec3) float32 { return b.Grid.Sample(voxel(p)) }
	var skipped int64
	count := func(p Vec3, peak float32) {
		if x, y, z := voxel(p); skip != nil && skip(int(math.Floor(x)), int(math.Floor(y)), int(math.Floor(z)), peak) {
			skipped++
		}
	}
	gradient := func(p Vec3) Vec3 {
		g := b.Grid.Gradient(voxel(p))
		return Vec3{float64(g[0]), float64(g[1]), float64(g[2])}
	}
	classify := func(v float32, stepRatio float64) img.RGBA {
		r, g, b, a := tf.Lookup(v)
		if a <= 0 {
			return img.RGBA{}
		}
		corrected := float32(1 - pow1m(float64(a), stepRatio))
		return img.RGBA{R: r * corrected, G: g * corrected, B: b * corrected, A: corrected}
	}

	step := opt.Step
	if step <= 0 {
		maxDim := float64(max(b.FullDims[0], max(b.FullDims[1], b.FullDims[2])))
		step = 0.5 / maxDim
	}
	const refStep = 1.0 / 256
	stepRatio := step / refStep
	aspect := float64(opt.Width) / float64(opt.Height)
	var samples int64
	for y := 0; y < opt.Height; y++ {
		v := (float64(y) + 0.5) / float64(opt.Height)
		for x := 0; x < opt.Width; x++ {
			u := (float64(x) + 0.5) / float64(opt.Width)
			w := cam.view(aspect) // the basis resolved afresh for every pixel
			ray := w.ray(u, v)
			tmin, tmax, ok := intersectAABB(ray, lo, hi)
			if !ok {
				continue
			}
			var acc img.RGBA
			t0 := math.Ceil(tmin/step) * step
			switch opt.Mode {
			case ModeMIP:
				var peak float32 = -1
				for t := t0; t < tmax; t += step {
					samples++
					p := ray.Origin.Add(ray.Dir.Scale(t))
					count(p, peak)
					if s := sample(p); s > peak {
						peak = s
					}
				}
				if peak >= 0 {
					r, g, bl, _ := tf.Lookup(peak)
					acc = img.RGBA{R: r * peak, G: g * peak, B: bl * peak, A: peak}
				}
			case ModeIso:
				for t := t0; t < tmax; t += step {
					samples++
					p := ray.Origin.Add(ray.Dir.Scale(t))
					count(p, 0)
					if sample(p) >= opt.IsoValue {
						shade := diffuse(gradient(p), opt.Light)
						acc = img.RGBA{R: 0.9 * shade, G: 0.85 * shade, B: 0.8 * shade, A: 1}
						break
					}
				}
			default:
				for t := t0; t < tmax; t += step {
					samples++
					p := ray.Origin.Add(ray.Dir.Scale(t))
					count(p, 0)
					smp := classify(sample(p), stepRatio)
					if smp.A > 0 && opt.Shading {
						shade := diffuse(gradient(p), opt.Light)
						smp.R *= shade
						smp.G *= shade
						smp.B *= shade
					}
					acc.AccumulateFrontToBack(smp)
					if acc.Opaque() {
						break
					}
				}
			}
			out.Set(x, y, acc)
		}
	}
	return out, samples, skipped
}

// firstBitDiff returns the first pixel at which two images differ in any
// bit of any channel ("" when none). Two NaNs count as equal whatever their
// payloads: which operand's payload an addition keeps is the compiler's
// choice of operand order, not arithmetic.
func firstBitDiff(want, got *img.Image) string {
	if want.W != got.W || want.H != got.H {
		return fmt.Sprintf("size %dx%d vs %dx%d", want.W, want.H, got.W, got.H)
	}
	same := func(a, b float32) bool {
		return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
	}
	for i, w := range want.Pix {
		g := got.Pix[i]
		if !same(w.R, g.R) || !same(w.G, g.G) || !same(w.B, g.B) || !same(w.A, g.A) {
			return fmt.Sprintf("pixel (%d,%d): want %v, got %v", i%want.W, i/want.W, w, g)
		}
	}
	return ""
}

// drawnBounds is the smallest rectangle holding every pixel of m that is not
// transparent black, found the slow way.
func drawnBounds(m *img.Image) image.Rectangle {
	var r image.Rectangle
	for i, p := range m.Pix {
		if p != (img.RGBA{}) {
			x, y := i%m.W, i/m.W
			r = r.Union(image.Rect(x, y, x+1, y+1))
		}
	}
	return r
}

// checkAgainstReference renders b through RenderBrick, serially and in
// bands, and requires the reference's pixels and sample count from both —
// and, as Fragment.Bounds, exactly the bounds of what the reference drew: a
// projected rectangle that cut a pixel off fails the first check, bounds
// that miss one or are not tight fail this one. Fragment.Skipped must be
// the count of the reference's samples whose base cell is empty under the
// mode's threshold (bound below the transfer function's transparent range
// or the iso level, at most the running peak for MIP) when the render had
// macrocells, and 0 when it had none: a leap one sample too long or short,
// or a passed sample left uncounted, fails it.
func checkAgainstReference(t *testing.T, what string, b *Brick, cam *Camera, ref, fast TransferFunc, opt Options) {
	t.Helper()
	cells := buildMacrocells(b.Grid)
	zeroBelow := float32(math.Inf(-1))
	if c, ok := fast.(*compiledTF); ok {
		zeroBelow = c.zeroBelow
	}
	filled := opt
	filled.fill()
	rule := func(x0, y0, z0 int, peak float32) bool {
		switch bound := cells.at(x0, y0, z0); opt.Mode {
		case ModeMIP:
			return bound <= peak
		case ModeIso:
			return bound < filled.IsoValue
		default:
			return bound < zeroBelow
		}
	}
	want, samples, skips := referenceCounting(b, cam, ref, opt, rule)
	bounds := drawnBounds(want)
	for _, parallel := range []bool{false, true} {
		opt.Parallel = parallel
		f := RenderBrick(b, cam, fast, opt)
		if d := firstBitDiff(want, f.Image); d != "" {
			t.Fatalf("%s parallel=%v: %s", what, parallel, d)
		}
		if f.Bounds != bounds {
			t.Fatalf("%s parallel=%v: bounds %v, the reference drew %v", what, parallel, f.Bounds, bounds)
		}
		if f.Samples != samples {
			t.Fatalf("%s parallel=%v: %d samples, reference took %d", what, parallel, f.Samples, samples)
		}
		wantSkipped := int64(0)
		if b.cells.Load() != nil { // this render had macrocells
			wantSkipped = skips
		}
		if f.Skipped != wantSkipped {
			t.Fatalf("%s parallel=%v: skipped %d of %d samples, the reference's empty cells hold %d", what, parallel, f.Skipped, f.Samples, wantSkipped)
		}
		img.Put(f.Image)
	}
}

// tfPair is a transfer function as the reference sees it and as RenderBrick
// is handed it: for a Piecewise, the raw control points and the prepared
// form, so the suite also holds the two to the same lookups.
type tfPair struct {
	name      string
	ref, fast TransferFunc
}

func prepared(name string, p Piecewise) tfPair { return tfPair{name, p, p.compile()} }

func presetPairs() []tfPair {
	return []tfPair{
		{"plume", presets["plume"], PresetTF("plume")},
		{"combustion", presets["combustion"], PresetTF("combustion")},
		{"supernova", presets["supernova"], PresetTF("supernova")},
		{"default", DefaultTF, PresetTF("no such preset")},
	}
}

// bandTF is a TransferFunc RenderBrick knows nothing about.
type bandTF struct{}

func (bandTF) Lookup(v float32) (r, g, b, a float32) {
	if v > 0.3 && v < 0.7 {
		return 0.2, 0.9, 0.4, 0.2
	}
	return 0, 0, 0, 0
}

// adversarialPairs are transfer functions picked to break a skipping rule
// that is not quite right.
func adversarialPairs() []tfPair {
	return []tfPair{
		prepared("opaque-at-zero", Piecewise{Points: []ControlPoint{
			{V: 0, R: 0.3, G: 0.3, B: 0.9, A: 0.02}, {V: 1, R: 1, G: 1, B: 1, A: 0.3}}}),
		prepared("hole", Piecewise{Points: []ControlPoint{
			{V: 0, A: 0}, {V: 0.1, R: 1, A: 0.2}, {V: 0.3, A: 0}, {V: 0.5, A: 0}, {V: 0.8, G: 1, A: 0.4}}}),
		prepared("negative-alpha-lead", Piecewise{Points: []ControlPoint{
			{V: 0, A: -0.5}, {V: 0.4, A: -1e-9}, {V: 0.6, R: 1, A: 0.5}}}),
		prepared("duplicate-v", Piecewise{Points: []ControlPoint{
			{V: 0, A: 0}, {V: 0.4, A: 0}, {V: 0.4, R: 1, G: 0.5, A: 0.6}, {V: 0.4, B: 1, A: 0.1}, {V: 1, R: 1, A: 0.3}}}),
		prepared("unsorted", Piecewise{Points: []ControlPoint{
			{V: 0, A: 0}, {V: 0.6, A: 0}, {V: 0.2, R: 1, A: 0.5}, {V: 1, G: 1, A: 0.2}}}),
		prepared("nan-point", Piecewise{Points: []ControlPoint{
			{V: 0, A: 0}, {V: float32(math.NaN()), A: 0}, {V: 0.5, R: 1, A: float32(math.NaN())}, {V: 1, G: 1, A: 0.2}}}),
		prepared("single", Piecewise{Points: []ControlPoint{{V: 0.5, R: 1, G: 0.5, B: 0.2, A: 0.1}}}),
		prepared("single-transparent", Piecewise{Points: []ControlPoint{{V: 0.5, R: 1}}}),
		prepared("empty", Piecewise{}),
		{"raw-piecewise", presets["supernova"], presets["supernova"]},
		{"user-defined", bandTF{}, bandTF{}},
	}
}

// testFields are the four synthetic fields of the suite.
func testFields() map[string]volume.FieldFunc {
	return map[string]volume.FieldFunc{
		"supernova": volume.Supernova, "plume": volume.Plume,
		"combustion": volume.Combustion, "turbulence": volume.Turbulence(3),
	}
}

// layouts are the two decompositions of the suite: three z-slabs, as the
// service cuts datasets, and a 2×2×2 grid with ghost voxels on every side.
func layouts(g *volume.Grid) map[string][]*Brick {
	out := map[string][]*Brick{}
	for _, box := range volume.BrickZ(g.Dims, 3) {
		out["slabs"] = append(out["slabs"], MakeBrick(g, box))
	}
	for _, box := range volume.BrickGrid(g.Dims, 2, 2, 2) {
		out["octants"] = append(out["octants"], MakeBrick(g, box))
	}
	return out
}

// TestRenderBrickBitIdenticalToReference is the renderer's contract: across
// transfer functions, fields, decompositions, views, modes, shading, bands
// and step lengths, every float32 of every pixel is the reference's. Bricks
// are rendered over and over, so all but each brick's first render run with
// macrocells; fresh bricks are TestQuickRandomCamerasMatchReference's.
func TestRenderBrickBitIdenticalToReference(t *testing.T) {
	const views = 16
	for fname, field := range testFields() {
		g := volume.Generate(field, 20, 18, 22)
		for lname, bricks := range layouts(g) {
			t.Run(fname+"/"+lname, func(t *testing.T) {
				t.Parallel()
				for v := 0; v < views; v++ {
					cam := NewCamera(float64(v)*2*math.Pi/views+0.1, 0.9*math.Sin(float64(v)), 1.6+0.1*float64(v%5))
					opt := Options{Width: 20, Height: 14}
					if v%2 == 1 {
						opt.Step = 1.0 / 37 // not the default, not a power of two
					}
					for _, tf := range presetPairs() {
						for _, mode := range []Mode{ModeComposite, ModeMIP, ModeIso} {
							for _, shading := range []bool{false, true} {
								opt.Mode, opt.Shading = mode, shading
								for i, b := range bricks {
									what := fmt.Sprintf("view %d tf %s mode %d shading %v brick %d", v, tf.name, mode, shading, i)
									checkAgainstReference(t, what, b, cam, tf.ref, tf.fast, opt)
								}
							}
						}
					}
				}
			})
		}
	}
}

func TestAdversarialTransferFunctionsMatchReference(t *testing.T) {
	g := volume.Generate(volume.Turbulence(11), 24, 24, 24)
	bricks := layouts(g)["octants"]
	for _, tf := range adversarialPairs() {
		for v := 0; v < 4; v++ {
			cam := NewCamera(0.3+1.7*float64(v), 0.5-0.3*float64(v), 1.9)
			for _, shading := range []bool{false, true} {
				opt := Options{Width: 24, Height: 24, Shading: shading}
				for i, b := range bricks {
					checkAgainstReference(t, fmt.Sprintf("tf %s view %d brick %d", tf.name, v, i), b, cam, tf.ref, tf.fast, opt)
				}
			}
		}
	}
}

// What may be skipped under each adversarial table.
func TestCompiledZeroRange(t *testing.T) {
	inf := float32(math.Inf(1))
	want := map[string]float32{
		"opaque-at-zero": -inf, "hole": 0, "negative-alpha-lead": 0.4, "duplicate-v": 0.4,
		"unsorted": -inf, "nan-point": -inf, "single": -inf, "single-transparent": inf, "empty": inf,
	}
	for _, tf := range adversarialPairs() {
		c, ok := tf.fast.(*compiledTF)
		if !ok {
			continue
		}
		if c.zeroBelow != want[tf.name] {
			t.Errorf("%s: zeroBelow = %v, want %v", tf.name, c.zeroBelow, want[tf.name])
		}
	}
	if c := PresetTF("supernova").(*compiledTF); c.zeroBelow != 0.18 {
		t.Errorf("supernova: zeroBelow = %v, want 0.18", c.zeroBelow)
	}
}

// The prepared form of a Piecewise looks up what the Piecewise does, on
// every kind of input.
func TestCompiledLookupMatchesPiecewise(t *testing.T) {
	probes := []float32{float32(math.NaN()), float32(math.Inf(-1)), float32(math.Inf(1)), -1, 0, 1, 2,
		0.18, 0.4, math.Nextafter32(0.4, 0), math.Nextafter32(0.4, 1), math.SmallestNonzeroFloat32}
	for i := 0; i <= 4096; i++ {
		probes = append(probes, float32(i)/4096)
	}
	for _, tf := range append(presetPairs(), adversarialPairs()...) {
		if _, ok := tf.fast.(*compiledTF); !ok {
			continue
		}
		for _, v := range probes {
			r0, g0, b0, a0 := tf.ref.Lookup(v)
			r1, g1, b1, a1 := tf.fast.Lookup(v)
			want := &img.Image{W: 1, H: 1, Pix: []img.RGBA{{R: r0, G: g0, B: b0, A: a0}}}
			got := &img.Image{W: 1, H: 1, Pix: []img.RGBA{{R: r1, G: g1, B: b1, A: a1}}}
			if d := firstBitDiff(want, got); d != "" {
				t.Fatalf("%s at %v: %s", tf.name, v, d)
			}
		}
	}
}

// Property: any camera — far, near, inside the volume, looking anywhere —
// renders a fresh brick (no macrocells) and a resident one (macrocells)
// exactly as the reference does.
func TestQuickRandomCamerasMatchReference(t *testing.T) {
	g := volume.Generate(volume.Supernova, 20, 20, 20)
	resident := layouts(g)["slabs"]
	tf := presetPairs()[2]
	f := func(ex, ey, ez, lx, ly, lz int16, fov uint8, mode uint8, inside bool) bool {
		unit := func(v int16) float64 { return float64(v) / math.MaxInt16 }
		eye := Vec3{0.5 + 2.5*unit(ex), 0.5 + 2.5*unit(ey), 0.5 + 2.5*unit(ez)}
		if inside {
			eye = Vec3{0.5 + 0.45*unit(ex), 0.5 + 0.45*unit(ey), 0.5 + 0.45*unit(ez)}
		}
		cam := &Camera{
			Eye:    eye,
			LookAt: Vec3{0.5 + 0.4*unit(lx), 0.5 + 0.4*unit(ly), 0.5 + 0.4*unit(lz)},
			Up:     Vec3{0, 1, 0},
			FovY:   (20 + float64(fov%80)) * math.Pi / 180,
		}
		opt := Options{Width: 18, Height: 12, Mode: Mode(mode % 3)}
		for i, b := range resident {
			fresh := &Brick{Grid: b.Grid, Extent: b.Extent, GridOrigin: b.GridOrigin, FullDims: b.FullDims}
			checkAgainstReference(t, fmt.Sprintf("eye %v fresh brick %d", eye, i), fresh, cam, tf.ref, tf.fast, opt)
			checkAgainstReference(t, fmt.Sprintf("eye %v resident brick %d", eye, i), b, cam, tf.ref, tf.fast, opt)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(14))}); err != nil {
		t.Error(err)
	}
}

// The projected rectangle is conservative by property, not by luck: seeded
// random orbits — eye far out, close in, and inside the dataset box — over
// square, wide, tall and one-pixel-high frames and all three modes, against
// slabs and octants, so bricks land wholly on screen, across its edges and
// wholly off it. Every render must be the reference's, pixels and bounds
// (checkAgainstReference), and the suite must have met each of the three
// answers project can give.
func TestQuickProjectedRectangleIsConservative(t *testing.T) {
	g := volume.Generate(volume.Supernova, 20, 20, 20)
	var bricks []*Brick
	for _, l := range layouts(g) {
		bricks = append(bricks, l...)
	}
	tf := presetPairs()[2]
	sizes := [][2]int{{18, 12}, {12, 18}, {16, 16}, {40, 6}, {24, 1}, {1, 9}}
	var whole, part, none, blank int
	f := func(angle, elev uint16, dist, size, mode, look uint8) bool {
		cam := NewCamera(
			2*math.Pi*float64(angle)/math.MaxUint16,
			1.4*(2*float64(elev)/math.MaxUint16-1),
			[]float64{0.2, 0.45, 0.7, 1.1, 2.4, 6}[dist%6], // the first two put the eye inside the box
		)
		if look%3 == 0 {
			// Look past the dataset, so that bricks leave the frame sideways.
			cam.LookAt = Vec3{0.5 + float64(look)/128, 0.2, 0.5 - float64(look)/200}
		}
		wh := sizes[int(size)%len(sizes)]
		opt := Options{Width: wh[0], Height: wh[1], Mode: Mode(mode % 3)}
		v := cam.view(float64(opt.Width) / float64(opt.Height))
		for i, b := range bricks {
			lo, hi := b.WorldBounds()
			switch r := v.project(lo, hi, opt.Width, opt.Height); {
			case r.Empty():
				none++
			case r == image.Rect(0, 0, opt.Width, opt.Height):
				whole++
			default:
				part++
			}
			what := fmt.Sprintf("eye %v look %v %dx%d mode %d brick %d", cam.Eye, cam.LookAt, opt.Width, opt.Height, opt.Mode, i)
			checkAgainstReference(t, what, b, cam, tf.ref, tf.fast, opt)
			if f := RenderBrick(b, cam, tf.fast, opt); f.Bounds.Empty() {
				blank++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Error(err)
	}
	t.Logf("projected rectangles: %d whole frame, %d part of it, %d empty; %d fragments drew nothing", whole, part, none, blank)
	if whole == 0 || part == 0 || none == 0 || blank <= none {
		t.Errorf("the cameras did not reach every case: %d whole, %d part, %d empty, %d blank fragments", whole, part, none, blank)
	}
}

// A camera whose Up lies along its line of sight has no basis to project
// through, and one with no field of view no image plane: the rectangle is
// then the whole frame and the pixels are the reference's.
func TestDegenerateCamerasRenderLikeReference(t *testing.T) {
	g := volume.Generate(volume.Supernova, 16, 16, 16)
	b := MakeBrick(g, volume.BrickZ(g.Dims, 2)[0])
	tf := presetPairs()[2]
	for name, cam := range map[string]*Camera{
		"straight down": NewCamera(0.3, math.Pi/2, 2),
		"no field":      {Eye: Vec3{0.5, 0.5, 3}, LookAt: Vec3{0.5, 0.5, 0.5}, Up: Vec3{0, 1, 0}},
	} {
		checkAgainstReference(t, name, b, cam, tf.ref, tf.fast, Options{Width: 12, Height: 10})
	}
}

// A corrupt chunk file can put anything in a voxel. NaN and ±Inf must render
// — through every mode, a preset, a user-defined function — as the reference
// renders them, and must not panic on the way.
func TestNonFiniteVoxelsRenderLikeReference(t *testing.T) {
	g := volume.Generate(volume.Supernova, 20, 20, 20)
	rng := rand.New(rand.NewSource(5))
	poison := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), math.MaxFloat32, -math.MaxFloat32}
	for i := 0; i < 40; i++ {
		g.Data[rng.Intn(len(g.Data))] = poison[i%len(poison)]
	}
	pairs := []tfPair{presetPairs()[2], {"user-defined", bandTF{}, bandTF{}}, adversarialPairs()[0]}
	for lname, bricks := range layouts(g) {
		for _, tf := range pairs {
			for v := 0; v < 3; v++ {
				cam := NewCamera(0.4+2.1*float64(v), 0.3, 2.0)
				for _, mode := range []Mode{ModeComposite, ModeMIP, ModeIso} {
					opt := Options{Width: 24, Height: 24, Mode: mode, Shading: v == 1}
					for i, b := range bricks {
						what := fmt.Sprintf("%s tf %s view %d mode %d brick %d", lname, tf.name, v, mode, i)
						checkAgainstReference(t, what, b, cam, tf.ref, tf.fast, opt)
					}
				}
			}
		}
	}
}

// A NaN sample is "no data": the bottom of the range in every lookup.
func TestNaNSampleClassifiesAsBottomOfRange(t *testing.T) {
	nan := float32(math.NaN())
	p := Piecewise{Points: []ControlPoint{{V: 0.2, R: 0.1, A: 0}, {V: 0.8, R: 1, A: 0.6}}}
	for name, tf := range map[string]TransferFunc{"piecewise": p, "compiled": p.compile()} {
		r, _, _, a := tf.Lookup(nan)
		if r != 0.1 || a != 0 {
			t.Errorf("%s: Lookup(NaN) = r %v a %v, want the first control point (r 0.1, a 0)", name, r, a)
		}
	}
}

// The fast path must actually run: a resident slab of the supernova is
// mostly space its transfer function cannot see, and a brick's first render
// has no macrocells to skip with.
func TestResidentBrickSkipsEmptySpace(t *testing.T) {
	g := volume.Generate(volume.Supernova, 48, 48, 48)
	cam := NewCamera(0.6, 0.3, 2.4)
	tf := PresetTF("supernova")
	// MIP can only skip what lies behind a brighter sample; the other two
	// skip whatever the transfer function or the iso level cannot see.
	floor := map[Mode]float64{ModeComposite: 0.5, ModeMIP: 0.01, ModeIso: 0.5}
	for mode, min := range floor {
		opt := Options{Width: 64, Height: 64, Mode: mode}
		for i, box := range volume.BrickZ(g.Dims, 3) {
			b := MakeBrick(g, box)
			first := RenderBrick(b, cam, tf, opt)
			if first.Samples == 0 || first.Skipped != 0 {
				t.Errorf("mode %d slab %d, first render: skipped %d of %d samples, want 0 of many", mode, i, first.Skipped, first.Samples)
			}
			again := RenderBrick(b, cam, tf, opt)
			if again.Samples != first.Samples {
				t.Errorf("mode %d slab %d: %d samples, then %d", mode, i, first.Samples, again.Samples)
			}
			if ratio := float64(again.Skipped) / float64(again.Samples); ratio < min {
				t.Errorf("mode %d slab %d, second render: skipped %.2f of %d samples, want at least %.2f", mode, i, ratio, again.Samples, min)
			}
			if d := firstBitDiff(first.Image, again.Image); d != "" {
				t.Errorf("mode %d slab %d: second render differs from first: %s", mode, i, d)
			}
		}
	}
	// A transfer function that sees everything leaves nothing to skip.
	b := MakeBrick(g, g.Bounds())
	dense := adversarialPairs()[0].fast
	RenderBrick(b, cam, dense, Options{Width: 32, Height: 32})
	if f := RenderBrick(b, cam, dense, Options{Width: 32, Height: 32}); f.Skipped != 0 {
		t.Errorf("alpha > 0 at V = 0: skipped %d samples, want none", f.Skipped)
	}
}

// Property: the macrocell bound really bounds every trilinear sample whose
// base falls in the cell, positions outside the grid included.
func TestQuickMacrocellBoundsEverySample(t *testing.T) {
	g := volume.Generate(volume.Turbulence(8), 19, 13, 22)
	for i := range g.Data { // spread the magnitudes and signs about
		g.Data[i] = (g.Data[i] - 0.4) * float32(int(1)<<(i%20))
	}
	cells := buildMacrocells(g)
	f := func(ux, uy, uz uint32) bool {
		at := func(u uint32, n int) float64 { return float64(u)/math.MaxUint32*float64(n+3) - 2 }
		x, y, z := at(ux, g.Dims[0]), at(uy, g.Dims[1]), at(uz, g.Dims[2])
		bound := cells.at(int(math.Floor(x)), int(math.Floor(y)), int(math.Floor(z)))
		return g.Sample(x, y, z) <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
	// Why the bound carries a margin: a float32 lerp can land above both of
	// its ends. 0.045 + fl(0.33 − 0.045) is 0.33000004.
	two := volume.NewGrid(2, 2, 2)
	for i := range two.Data {
		two.Data[i] = []float32{0.045, 0.33}[i%2]
	}
	x := math.Nextafter(1, 0) // base 0, weight float32(x) = 1
	if s, b := two.Sample(x, 0, 0), buildMacrocells(two).at(0, 0, 0); !(s > 0.33) || s > b {
		t.Errorf("lerp overshoot: sample %v, largest voxel 0.33, bound %v; want 0.33 < sample <= bound", s, b)
	}
	// A non-finite voxel makes every cell that can read it unskippable.
	g.Set(8, 4, 12, float32(math.NaN()))
	cells = buildMacrocells(g)
	for _, base := range [][3]int{{8, 4, 12}, {7, 3, 11}} {
		if b := cells.at(base[0], base[1], base[2]); !math.IsInf(float64(b), 1) {
			t.Errorf("cell of base %v next to a NaN voxel has bound %v, want +Inf", base, b)
		}
	}
}

// RenderBrick allocates no more than it did before the march was
// specialised (4 a call, 6 in two bands): today the shared state, the
// fragment and one closure and goroutine per band — 2 and 4 — and nothing
// per render for the transfer function or a resident brick's macrocells,
// nor for its leap map at a steady threshold or while thresholds alternate.
func TestRenderBrickAllocations(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g := volume.Generate(volume.Supernova, 24, 24, 24)
	b := MakeBrick(g, g.Bounds())
	cam := NewCamera(0.6, 0.3, 2.4)
	tf := PresetTF("supernova")
	for _, c := range []struct {
		parallel bool
		max      float64
	}{{false, 4}, {true, 6}} {
		opt := Options{Width: 32, Height: 32, Parallel: c.parallel}
		img.Put(RenderBrick(b, cam, tf, opt).Image) // builds nothing later renders would
		img.Put(RenderBrick(b, cam, tf, opt).Image)
		got := testing.AllocsPerRun(20, func() { img.Put(RenderBrick(b, cam, tf, opt).Image) })
		if got > c.max {
			t.Errorf("parallel=%v: %v allocations a render, want at most %v", c.parallel, got, c.max)
		}
	}
	// The renders above leapt with a map for supernova's threshold. Renders
	// that alternate it with another preset's and two iso levels keep that
	// map and build none.
	l := b.leap.Load()
	if l == nil || l.below != 0.18 {
		t.Fatalf("leap map %+v, want one for threshold 0.18", l)
	}
	alternate := []struct {
		tf  TransferFunc
		opt Options
	}{
		{tf, Options{Width: 32, Height: 32}},
		{PresetTF("combustion"), Options{Width: 32, Height: 32}},
		{tf, Options{Width: 32, Height: 32, Mode: ModeIso, IsoValue: 0.3}},
		{tf, Options{Width: 32, Height: 32, Mode: ModeIso, IsoValue: 0.6}},
	}
	got := testing.AllocsPerRun(20, func() {
		for _, a := range alternate {
			img.Put(RenderBrick(b, cam, a.tf, a.opt).Image)
		}
	})
	if got /= float64(len(alternate)); got > 4 {
		t.Errorf("alternating thresholds: %v allocations a render, want at most 4", got)
	}
	if b.leap.Load() != l {
		t.Error("alternating thresholds replaced the leap map")
	}
}
