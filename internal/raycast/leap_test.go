package raycast

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"vizsched/internal/img"
	"vizsched/internal/volume"
)

// residentBricks cuts g into z-slabs and renders each once, so the next
// render of each is its second: the one that builds macrocells and, in
// composite, a leap map.
func residentBricks(g *volume.Grid, slabs int, cam *Camera, tf TransferFunc, opt Options) []*Brick {
	var bricks []*Brick
	for _, box := range volume.BrickZ(g.Dims, slabs) {
		b := MakeBrick(g, box)
		img.Put(RenderBrick(b, cam, tf, opt).Image)
		bricks = append(bricks, b)
	}
	return bricks
}

// The benchmark's brick shapes leap across many cells, which the suite's
// 20–24³ grids do not: 48³ in three slabs at 128², 32³ in eight slabs at
// 64² and 128³ in two slabs at 64², each field under its preset, over a
// 16-view orbit — pixels, bounds and counts the reference's. Then the edge
// geometry: rays with a zero direction component, rays along cell faces and
// an eye inside the brick.
func TestLeapMatchesReferenceOnLiveShapes(t *testing.T) {
	views := 16
	if raceEnabled { // the race detector slows the reference tenfold
		views = 4
	}
	shapes := []struct {
		name              string
		field             volume.FieldFunc
		dim, slabs, width int
		tf                tfPair
	}{
		{"supernova48", volume.Supernova, 48, 3, 128, presetPairs()[2]},
		{"plume48", volume.Plume, 48, 3, 128, presetPairs()[0]},
		{"combustion48", volume.Combustion, 48, 3, 128, presetPairs()[1]},
		{"supernova32", volume.Supernova, 32, 8, 64, presetPairs()[2]},
		{"supernova128", volume.Supernova, 128, 2, 64, presetPairs()[2]},
	}
	for _, s := range shapes {
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			g := volume.Generate(s.field, s.dim, s.dim, s.dim)
			opt := Options{Width: s.width, Height: s.width}
			bricks := residentBricks(g, s.slabs, NewCamera(0, 0.3, 2.4), s.tf.fast, opt)
			for v := 0; v < views; v++ {
				cam := NewCamera(float64(v)*2*math.Pi/float64(views), 0.3, 2.4)
				for i, b := range bricks {
					checkAgainstReference(t, fmt.Sprintf("view %d brick %d", v, i), b, cam, s.tf.ref, s.tf.fast, opt)
				}
			}
		})
	}

	// 32 voxels to the unit: a world coordinate (4m + 0.5)/32 is exact and
	// lands on voxel position 4m, the face between two cells.
	g := volume.Generate(volume.Supernova, 32, 32, 32)
	face := func(m int) float64 { return (4*float64(m) + 0.5) / 32 }
	cams := map[string]*Camera{
		// Odd frames put a column and a row of rays in the plane x = 0.5 or
		// y = 0.5, whose direction has a zero component.
		"down the z axis": {Eye: Vec3{0.5, 0.5, 3}, LookAt: Vec3{0.5, 0.5, 0.5}, Up: Vec3{0, 1, 0}, FovY: 0.7},
		"down the x axis": {Eye: Vec3{-2, 0.5, 0.5}, LookAt: Vec3{0.5, 0.5, 0.5}, Up: Vec3{0, 1, 0}, FovY: 0.7},
		// The zero-component rays of these run along cell faces.
		"along faces":            {Eye: Vec3{face(3), face(5), 3}, LookAt: Vec3{face(3), face(5), 0.5}, Up: Vec3{0, 1, 0}, FovY: 0.9},
		"across faces":           {Eye: Vec3{face(2), -2, face(6)}, LookAt: Vec3{face(2), 0.5, face(6)}, Up: Vec3{0, 0, 1}, FovY: 0.9},
		"diagonal from a corner": {Eye: Vec3{face(-8), face(-8), face(-8)}, LookAt: Vec3{face(4), face(4), face(4)}, Up: Vec3{0, 1, 0}, FovY: 0.6},
		"eye inside":             NewCamera(0.7, 0.2, 0.15),
		"eye inside, on a face":  {Eye: Vec3{face(4), face(4), face(4)}, LookAt: Vec3{face(7), face(4), face(1)}, Up: Vec3{0, 1, 0}, FovY: 1.2},
	}
	tf := presetPairs()[2]
	for name, cam := range cams {
		for _, mode := range []Mode{ModeComposite, ModeIso} {
			opt := Options{Width: 33, Height: 31, Mode: mode}
			for _, slabs := range []int{1, 3} {
				for i, b := range residentBricks(g, slabs, cam, tf.fast, opt) {
					what := fmt.Sprintf("%s mode %d slabs %d brick %d", name, mode, slabs, i)
					checkAgainstReference(t, what, b, cam, tf.ref, tf.fast, opt)
				}
			}
		}
	}
}

// Far eyes: at 10³ voxels-worth of distance a leap is exact and taken; at
// 10¹⁵ the rounding of a sample position is coarser than leapEps and the
// guard turns leaping off, leaving per-sample skipping. Either way the
// pixels and counts are the reference's. Iso never leaps. The field of view
// shrinks with the distance so the brick fills the frame.
func TestFarCameraLeapsExactly(t *testing.T) {
	g := volume.Generate(volume.Supernova, 32, 32, 32)
	tf := presetPairs()[2]
	for _, c := range []struct {
		dist, step float64
		leaps      bool
	}{
		{1e3, 0, true},
		{1e8, 0, false},
		{1e15, 0.25, false}, // a step below ulp(10¹⁵)/2 would not advance the reference's t
	} {
		cam := NewCamera(0.6, 0.3, c.dist)
		cam.FovY = 2 * math.Atan(0.8/c.dist)
		for _, mode := range []Mode{ModeComposite, ModeIso} {
			opt := Options{Width: 31, Height: 31, Mode: mode, Step: c.step}
			for i, b := range residentBricks(g, 2, cam, tf.fast, opt) {
				what := fmt.Sprintf("dist %g mode %d brick %d", c.dist, mode, i)
				checkAgainstReference(t, what, b, cam, tf.ref, tf.fast, opt)
				if f := RenderBrick(b, cam, tf.fast, opt); f.Samples == 0 || f.Bounds.Empty() {
					t.Fatalf("%s: %d samples, bounds %v: the brick is not on screen", what, f.Samples, f.Bounds)
				}
				opt.fill()
				want := c.leaps && mode == ModeComposite
				if m := newMarch(b, cam, tf.fast, opt); (m.leap != nil) != want {
					t.Errorf("%s: leaping %v, want %v", what, m.leap != nil, want)
				}
			}
		}
	}
}

// Four goroutines render one resident brick at once, in composite under
// two transfer functions with different transparent ranges and at two iso
// levels in turn. One composite threshold gets the brick's leap map and
// keeps it; renders under the other skip per sample. Every render is the
// reference's, pixel for pixel, and afterwards each set of options is the
// reference's in its counts too.
func TestLeapMapKeptUnderLoad(t *testing.T) {
	g := volume.Generate(volume.Supernova, 32, 32, 32)
	b := MakeBrick(g, volume.BrickZ(g.Dims, 2)[0])
	cam := NewCamera(0.6, 0.3, 2.4)
	runs := []struct {
		tf  tfPair
		opt Options
	}{
		{presetPairs()[2], Options{Width: 48, Height: 48}},
		{presetPairs()[1], Options{Width: 48, Height: 48}},
		{presetPairs()[2], Options{Width: 48, Height: 48, Mode: ModeIso, IsoValue: 0.3}},
		{presetPairs()[2], Options{Width: 48, Height: 48, Mode: ModeIso, IsoValue: 0.6}},
	}
	var thresholds []float32
	var want []*img.Image
	for _, r := range runs[:2] {
		thresholds = append(thresholds, r.tf.fast.(*compiledTF).zeroBelow)
	}
	if thresholds[0] == thresholds[1] {
		t.Fatalf("both transfer functions have threshold %v", thresholds[0])
	}
	for _, r := range runs {
		ref, _ := renderBrickReference(b, cam, r.tf.ref, r.opt)
		want = append(want, ref)
	}
	rounds := 12
	if raceEnabled {
		rounds = 4
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (w + i) % len(runs)
				f := RenderBrick(b, cam, runs[k].tf.fast, runs[k].opt)
				if d := firstBitDiff(want[k], f.Image); d != "" {
					t.Errorf("goroutine %d round %d, run %d: %s", w, i, k, d)
					return
				}
				img.Put(f.Image)
			}
		}(w)
	}
	wg.Wait()
	l := b.leap.Load()
	if l == nil || (l.below != thresholds[0] && l.below != thresholds[1]) {
		t.Fatalf("leap map %+v, want one for threshold %v or %v", l, thresholds[0], thresholds[1])
	}
	for k, r := range runs {
		checkAgainstReference(t, fmt.Sprintf("run %d", k), b, cam, r.tf.ref, r.tf.fast, r.opt)
	}
	if b.leap.Load() != l {
		t.Error("the leap map was replaced")
	}
}

// The leap map is the Chebyshev distance, in cells, to the nearest cell
// that is not empty, capped at 255: held against a brute-force scan, over
// grids where full cells are dense, sparse, absent and everywhere.
func TestLeapMapIsChebyshevDistance(t *testing.T) {
	for _, c := range []struct {
		name  string
		field volume.FieldFunc
		below float32
	}{
		{"supernova", volume.Supernova, 0.18},
		{"sparse", volume.Supernova, 0.9},
		{"none full", volume.Supernova, float32(math.Inf(1))},
		{"all full", volume.Supernova, -1},
		{"turbulence", volume.Turbulence(4), 0.5},
	} {
		g := volume.Generate(c.field, 37, 22, 29)
		cells := buildMacrocells(g)
		l := buildLeapMap(cells, c.below)
		for k := 0; k < cells.nz; k++ {
			for j := 0; j < cells.ny; j++ {
				for i := 0; i < cells.nx; i++ {
					want := leapCap
					for z := 0; z < cells.nz; z++ {
						for y := 0; y < cells.ny; y++ {
							for x := 0; x < cells.nx; x++ {
								if !(cells.bound[z*cells.nxy+y*cells.nx+x] < c.below) {
									d := max(abs(x-i), abs(y-j), abs(z-k))
									want = min(want, d)
								}
							}
						}
					}
					if got := int(l.dist[k*cells.nxy+j*cells.nx+i]); got != want {
						t.Fatalf("%s: cell (%d,%d,%d) has distance %d, want %d", c.name, i, j, k, got, want)
					}
				}
			}
		}
	}
	// The cap: a row of 300 empty cells with one full cell at its end.
	g := volume.NewGrid(4*300, 1, 1)
	g.Data[len(g.Data)-1] = 1
	l := buildLeapMap(buildMacrocells(g), 0.5)
	if l.dist[0] != leapCap || l.dist[299] != 0 || l.dist[299-200] != 200 {
		t.Errorf("distances %d, %d, %d at cells 0, 99 and 299; want 255 (capped), 200, 0", l.dist[0], l.dist[99], l.dist[299])
	}
}

func abs(x int) int { return max(x, -x) }

// FuzzLeapMatchesReference renders a brick of fuzzed voxels (NaN, ±Inf and
// 10³⁰ among them) twice, through a preset, an adversarial table or an iso
// level, from a camera 0.3 to 10¹² away, and holds the second render to the
// reference's pixels, bounds and counts.
func FuzzLeapMatchesReference(f *testing.F) {
	f.Add([]byte{9, 9, 9, 0, 0, 40, 80, 120, 160, 200, 240, 200, 160, 120}, uint8(0), uint16(9000), uint16(100), uint8(3), uint8(1), uint8(0))
	f.Add([]byte{10, 10, 10, 1, 0, 0, 0, 0, 0, 0, 0, 0, 250, 250, 250, 0, 0, 0}, uint8(1), uint16(0), uint16(4000), uint8(9), uint8(2), uint8(7))
	f.Add([]byte{6, 8, 10, 2, 241, 242, 243, 244, 245, 0, 199, 199}, uint8(2), uint16(30000), uint16(65535), uint8(100), uint8(3), uint8(40))
	f.Add([]byte{10, 3, 7, 3, 100, 100, 100, 100, 100, 100, 100, 0, 0, 0, 0}, uint8(5), uint16(50000), uint16(20000), uint8(55), uint8(0), uint8(255))
	f.Fuzz(func(t *testing.T, data []byte, source uint8, angle, dist uint16, pick, slabs, step uint8) {
		if len(data) < 4 {
			return
		}
		g := volume.NewGrid(1+int(data[0])%10, 1+int(data[1])%10, 1+int(data[2])%10)
		for i := range g.Data {
			if 4+i >= len(data) {
				break
			}
			switch v := data[4+i]; v {
			case 240:
				g.Data[i] = float32(math.NaN())
			case 241:
				g.Data[i] = float32(math.Inf(1))
			case 242:
				g.Data[i] = float32(math.Inf(-1))
			case 243:
				g.Data[i] = 1e30
			case 244:
				g.Data[i] = -1e30
			default:
				g.Data[i] = float32(v) / 200
			}
		}
		var tf tfPair
		opt := Options{Width: 12, Height: 10}
		switch source % 3 {
		case 0:
			tf = presetPairs()[int(pick)%len(presetPairs())]
		case 1:
			tf = adversarialPairs()[int(pick)%len(adversarialPairs())]
		default:
			tf = presetPairs()[2]
			opt.Mode, opt.IsoValue = ModeIso, float32(pick)/200
		}
		if step != 0 {
			opt.Step = float64(step) / 256 // ≥ 2⁻⁸, far above ulp(t) at 10¹²
		}
		d := 0.3 * math.Pow(1e12/0.3, float64(dist)/math.MaxUint16)
		cam := NewCamera(2*math.Pi*float64(angle)/math.MaxUint16, 0.3*float64(int(data[3]%7)-3), d)
		cam.FovY = 2 * math.Atan(0.9/d)
		n := 1 + int(slabs)%3
		for i, box := range volume.BrickZ(g.Dims, min(n, g.Dims[2])) {
			b := MakeBrick(g, box)
			img.Put(RenderBrick(b, cam, tf.fast, opt).Image)
			checkAgainstReference(t, fmt.Sprintf("dims %v tf %s mode %d dist %g brick %d", g.Dims, tf.name, opt.Mode, d, i), b, cam, tf.ref, tf.fast, opt)
		}
	})
}
