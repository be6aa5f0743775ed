package raycast

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"vizsched/internal/volume"
)

// buildMacrocellsReference is the build buildMacrocells replaced: a scan of
// each cell's 5³ voxel block with a validity branch per voxel. The
// separable build must give its bounds bit for bit.
func buildMacrocellsReference(g *volume.Grid) *macrocells {
	m := cellGrid(g)
	m.bound = make([]float32, m.nxy*m.nz)
	inf := float32(math.Inf(1))
	for k := 0; k < m.nz; k++ {
		z0, z1 := k<<cellShift, min(k<<cellShift+cellEdge, m.maxZ)
		for j := 0; j < m.ny; j++ {
			y0, y1 := j<<cellShift, min(j<<cellShift+cellEdge, m.maxY)
			for i := 0; i < m.nx; i++ {
				x0, x1 := i<<cellShift, min(i<<cellShift+cellEdge, m.maxX)
				lo, hi := inf, -inf
				ok := true
				for z := z0; z <= z1; z++ {
					for y := y0; y <= y1; y++ {
						row := g.Index(0, y, z)
						for _, v := range g.Data[row+x0 : row+x1+1] {
							if !(v >= -cellValueLimit && v <= cellValueLimit) {
								ok = false
							}
							lo, hi = min(lo, v), max(hi, v)
						}
					}
				}
				b := inf
				if ok {
					b = hi + max(hi, -lo)*lerpSlack
				}
				m.bound[k*m.nxy+j*m.nx+i] = b
			}
		}
	}
	return &m
}

func sameBounds(t *testing.T, what string, got, want *macrocells) {
	t.Helper()
	if got.nx != want.nx || got.ny != want.ny || got.nz != want.nz || len(got.bound) != len(want.bound) {
		t.Fatalf("%s: %d×%d×%d cells (%d bounds), want %d×%d×%d (%d)", what,
			got.nx, got.ny, got.nz, len(got.bound), want.nx, want.ny, want.nz, len(want.bound))
	}
	for c, w := range want.bound {
		if g := got.bound[c]; math.Float32bits(g) != math.Float32bits(w) {
			t.Fatalf("%s: cell %d bound %v (%#08x), the reference's %v (%#08x)", what, c, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

// The separable build gives the reference's bounds to the bit on odd and
// single-voxel dimensions, where the last cell on an axis is short, and
// with the voxels that make a cell unskippable — NaN, ±Inf, magnitudes
// above 10³⁰ — and both zeros, on a cell's edge and corner voxels, which two
// to eight cells share.
func TestSeparableMacrocellsMatchReference(t *testing.T) {
	dims := [][3]int{
		{1, 1, 1}, {1, 7, 3}, {4, 4, 4}, {5, 5, 5}, {9, 1, 13},
		{8, 12, 16}, {17, 6, 9}, {13, 21, 5}, {130, 130, 66},
	}
	specials := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		1.0000001e30, -1.0000001e30, 1e30, -1e30, 0, float32(math.Copysign(0, -1)), 1e-40,
	}
	for _, d := range dims {
		g := volume.Generate(volume.Turbulence(3), d[0], d[1], d[2])
		for i := range g.Data { // both signs and a spread of magnitudes
			g.Data[i] = (g.Data[i] - 0.4) * float32(int(1)<<(i%9))
		}
		sameBounds(t, fmt.Sprintf("%v", d), buildMacrocells(g), buildMacrocellsReference(g))

		// One special voxel at a time, on a cell's corner (shared by up to
		// eight cells), on an edge, inside a cell and at the grid's last
		// voxel.
		at := [][3]int{
			{4, 4, 4}, {4, 1, 2}, {1, 2, 3}, {d[0] - 1, d[1] - 1, d[2] - 1}, {0, 0, 0},
		}
		for _, p := range at {
			x, y, z := min(p[0], d[0]-1), min(p[1], d[1]-1), min(p[2], d[2]-1)
			for _, v := range specials {
				was := g.At(x, y, z)
				g.Set(x, y, z, v)
				sameBounds(t, fmt.Sprintf("%v with %v at (%d,%d,%d)", d, v, x, y, z), buildMacrocells(g), buildMacrocellsReference(g))
				g.Set(x, y, z, was)
			}
		}
	}
	// A grid of nothing but one special value, and one of both zeros.
	for _, v := range specials {
		g := volume.NewGrid(6, 5, 9)
		for i := range g.Data {
			g.Data[i] = v
		}
		sameBounds(t, fmt.Sprintf("all %v", v), buildMacrocells(g), buildMacrocellsReference(g))
	}
	g := volume.NewGrid(6, 5, 9)
	for i := range g.Data {
		g.Data[i] = float32(math.Copysign(0, float64(i%2)-0.5))
	}
	sameBounds(t, "±0", buildMacrocells(g), buildMacrocellsReference(g))
}

// storedBrick cuts box out of g as MakeBrick does, writes it with its skip
// section for tf to a brick file, and reads it back with the section
// adopted: a cache miss's brick without the service around it.
func storedBrick(t testing.TB, g *volume.Grid, box volume.Box, tf TransferFunc) *Brick {
	t.Helper()
	cut := MakeBrick(g, box)
	path := filepath.Join(t.TempDir(), "brick.vsvol")
	if err := volume.SaveGrid(path, cut.Grid, SkipSection(cut.Grid, tf)); err != nil {
		t.Fatal(err)
	}
	grid, skip, err := volume.LoadGridInto(path, volume.Slab{})
	if err != nil {
		t.Fatal(err)
	}
	b := &Brick{Grid: grid, Extent: cut.Extent, GridOrigin: cut.GridOrigin, FullDims: cut.FullDims}
	if err := b.AdoptSkip(skip); err != nil {
		t.Fatal(err)
	}
	return b
}

// A brick read back from its file skips and leaps from its first render:
// on the benchmark's brick shapes, in every mode, each render — the first
// among them — has the reference's pixels, bounds and samples, and skips
// exactly the reference's samples whose cell is empty.
func TestStoredSkipMatchesReferenceOnFirstRender(t *testing.T) {
	views := 6
	if raceEnabled {
		views = 2
	}
	shapes := []struct {
		name              string
		field             volume.FieldFunc
		dim, slabs, width int
		tf                tfPair
	}{
		{"supernova128", volume.Supernova, 128, 2, 64, presetPairs()[2]},
		{"plume48", volume.Plume, 48, 3, 128, presetPairs()[0]},
		{"combustion32", volume.Combustion, 32, 8, 64, presetPairs()[1]},
	}
	for _, s := range shapes {
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			g := volume.Generate(s.field, s.dim, s.dim, s.dim)
			for _, mode := range []Mode{ModeComposite, ModeMIP, ModeIso} {
				opt := Options{Width: s.width, Height: s.width, Mode: mode}
				for i, box := range volume.BrickZ(g.Dims, s.slabs) {
					b := storedBrick(t, g, box, s.tf.fast)
					for v := 0; v < views; v++ {
						cam := NewCamera(float64(v)*2*math.Pi/float64(views)+0.2, 0.3, 2.4)
						checkAgainstReference(t, fmt.Sprintf("mode %d brick %d view %d", mode, i, v), b, cam, s.tf.ref, s.tf.fast, opt)
					}
				}
			}
		})
	}
}

// A stored leap map serves only the threshold it was computed for. Bricks
// stored for one preset and rendered through another — a lower transparent
// range and a higher one — skip per sample under the render's own, with the
// reference's pixels and counts, and keep the stored map.
func TestStoredLeapMapForAnotherThresholdUnused(t *testing.T) {
	g := volume.Generate(volume.Supernova, 48, 48, 48)
	pairs := presetPairs()
	opt := Options{Width: 64, Height: 64}
	for _, c := range []struct{ stored, rendered tfPair }{
		{pairs[2], pairs[0]}, // stored for supernova (0.18), rendered as plume (0.15)
		{pairs[0], pairs[1]}, // stored for plume (0.15), rendered as combustion (0.2)
	} {
		for i, box := range volume.BrickZ(g.Dims, 3) {
			b := storedBrick(t, g, box, c.stored.fast)
			l := b.leap.Load()
			for v := 0; v < 3; v++ {
				cam := NewCamera(float64(v)*2.1, 0.3, 2.4)
				checkAgainstReference(t, fmt.Sprintf("stored %s, rendered %s, brick %d view %d", c.stored.name, c.rendered.name, i, v),
					b, cam, c.rendered.ref, c.rendered.fast, opt)
			}
			if b.leap.Load() != l || l.below != c.stored.fast.(*compiledTF).zeroBelow {
				t.Errorf("stored %s, rendered %s, brick %d: the stored leap map was replaced", c.stored.name, c.rendered.name, i)
			}
		}
	}
}

// A composite render under a threshold that leaves no cell empty looks
// nothing up per sample: turbulence under the default preset, whose range
// starts above its threshold. MIP still has its macrocells.
func TestNoEmptyCellNoLookups(t *testing.T) {
	g := volume.Generate(volume.Turbulence(1), 24, 24, 24)
	for i := range g.Data {
		g.Data[i] = 0.1 + 0.8*g.Data[i]
	}
	tf := presetPairs()[3]
	cam := NewCamera(0.4, 0.3, 2.4)
	for i, box := range volume.BrickZ(g.Dims, 2) {
		b := storedBrick(t, g, box, tf.fast)
		if l := b.leap.Load(); l.anyEmpty {
			t.Fatalf("brick %d: a cell below %v", i, l.below)
		}
		for _, mode := range []Mode{ModeComposite, ModeMIP} {
			opt := Options{Width: 32, Height: 32, Mode: mode}
			checkAgainstReference(t, fmt.Sprintf("brick %d mode %d", i, mode), b, cam, tf.ref, tf.fast, opt)
			opt.fill()
			if m := newMarch(b, cam, tf.fast, opt); (m.cells == nil) != (mode == ModeComposite) || m.leap != nil {
				t.Errorf("brick %d mode %d: macrocells %v, leap map %v", i, mode, m.cells != nil, m.leap != nil)
			}
		}
	}
}

// AdoptSkip refuses a section that does not fit the grid.
func TestAdoptSkipRejectsWrongSize(t *testing.T) {
	g := volume.Generate(volume.Plume, 9, 8, 5) // 3×2×2 cells
	good := SkipSection(g, PresetTF("plume"))
	for name, s := range map[string]volume.Skip{
		"none":            {},
		"a bound short":   {Bound: good.Bound[:11], Leap: good.Leap},
		"a distance long": {Bound: good.Bound, Leap: append(good.Leap, 0)},
	} {
		b := MakeBrick(g, g.Bounds())
		if err := b.AdoptSkip(s); err == nil {
			t.Errorf("%s: adopted", name)
		}
		if b.cells.Load() != nil || b.leap.Load() != nil {
			t.Errorf("%s: a refused section was published", name)
		}
	}
	b := MakeBrick(g, g.Bounds())
	if err := b.AdoptSkip(good); err != nil {
		t.Fatal(err)
	}
	if s := b.Slab(); &s.Bound[0] != &good.Bound[0] || &s.Leap[0] != &good.Leap[0] || &s.Voxels[0] != &b.Grid.Data[0] {
		t.Error("Slab does not return the memory the brick reads")
	}
}

// BenchmarkBuildMacrocells builds the bounds of live_cold_sweep's brick, half
// of a 128³ volume with its ghost layer (128×128×65 voxels), separably and
// the reference way.
func BenchmarkBuildMacrocells(b *testing.B) {
	g := volume.Generate(volume.Supernova, 128, 128, 128)
	slab := MakeBrick(g, volume.BrickZ(g.Dims, 2)[0]).Grid
	b.Run("separable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buildMacrocells(slab)
		}
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buildMacrocellsReference(slab)
		}
	})
	b.Run("leapmap", func(b *testing.B) {
		c := buildMacrocells(slab)
		for i := 0; i < b.N; i++ {
			buildLeapMap(c, 0.18)
		}
	})
}
