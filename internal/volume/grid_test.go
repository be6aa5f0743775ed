package volume

import (
	"math"
	"testing"
	"testing/quick"
)

// voxels is the number of voxels inside b.
func voxels(b Box) int { return b.Dx() * b.Dy() * b.Dz() }

func TestBoxBasics(t *testing.T) {
	b := Box{Min: [3]int{1, 2, 3}, Max: [3]int{4, 6, 9}}
	if b.Dx() != 3 || b.Dy() != 4 || b.Dz() != 6 {
		t.Errorf("dims = %d,%d,%d", b.Dx(), b.Dy(), b.Dz())
	}
	if b.Empty() {
		t.Error("non-empty box reported empty")
	}
	if !b.Contains(1, 2, 3) || b.Contains(4, 2, 3) {
		t.Error("Contains boundary handling wrong")
	}
	i := b.Intersect(Box{Min: [3]int{2, 2, 2}, Max: [3]int{10, 3, 5}})
	want := Box{Min: [3]int{2, 2, 3}, Max: [3]int{4, 3, 5}}
	if i != want {
		t.Errorf("Intersect = %v, want %v", i, want)
	}
	empty := b.Intersect(Box{Min: [3]int{100, 100, 100}, Max: [3]int{200, 200, 200}})
	if !empty.Empty() {
		t.Errorf("disjoint Intersect = %v, want empty", empty)
	}
}

func TestGridAtClampsAndSet(t *testing.T) {
	g := NewGrid(4, 4, 4)
	g.Set(3, 3, 3, 0.75)
	if g.At(3, 3, 3) != 0.75 {
		t.Error("Set/At roundtrip failed")
	}
	// Out-of-range clamps to boundary voxel.
	if g.At(99, 99, 99) != 0.75 {
		t.Error("At did not clamp high")
	}
	if g.At(-5, 0, 0) != g.At(0, 0, 0) {
		t.Error("At did not clamp low")
	}
}

func TestNewGridPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewGrid(0, 4, 4)
}

func TestSampleAtVoxelCentersIsExact(t *testing.T) {
	g := Generate(Turbulence(7), 8, 8, 8)
	for _, p := range [][3]int{{0, 0, 0}, {3, 4, 5}, {7, 7, 7}} {
		want := g.At(p[0], p[1], p[2])
		got := g.Sample(float64(p[0]), float64(p[1]), float64(p[2]))
		if math.Abs(float64(got-want)) > 1e-6 {
			t.Errorf("Sample%v = %v, want %v", p, got, want)
		}
	}
}

func TestSampleInterpolatesLinearly(t *testing.T) {
	// A grid whose value equals its x coordinate must interpolate exactly.
	g := NewGrid(4, 4, 4)
	for z := 0; z < 4; z++ {
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				g.Set(x, y, z, float32(x))
			}
		}
	}
	for _, x := range []float64{0.25, 1.5, 2.75} {
		got := g.Sample(x, 1.3, 2.7)
		if math.Abs(float64(got)-x) > 1e-5 {
			t.Errorf("Sample(%v) = %v, want %v", x, got, x)
		}
	}
}

// Property: trilinear samples are bounded by the grid's min and max.
func TestQuickSampleBounded(t *testing.T) {
	g := Generate(Turbulence(42), 10, 10, 10)
	lo, hi := g.MinMax()
	f := func(a, b, c uint16) bool {
		x := float64(a) / 65535 * 9
		y := float64(b) / 65535 * 9
		z := float64(c) / 65535 * 9
		v := g.Sample(x, y, z)
		return v >= lo-1e-5 && v <= hi+1e-5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGradientOfLinearRamp(t *testing.T) {
	g := NewGrid(6, 6, 6)
	for z := 0; z < 6; z++ {
		for y := 0; y < 6; y++ {
			for x := 0; x < 6; x++ {
				g.Set(x, y, z, float32(2*x+3*y+5*z))
			}
		}
	}
	grad := g.Gradient(2.5, 2.5, 2.5)
	want := [3]float32{2, 3, 5}
	for i := range grad {
		if math.Abs(float64(grad[i]-want[i])) > 1e-4 {
			t.Errorf("Gradient[%d] = %v, want %v", i, grad[i], want[i])
		}
	}
}

func TestSubGridCopies(t *testing.T) {
	g := Generate(Turbulence(3), 8, 6, 10)
	box := Box{Min: [3]int{2, 1, 3}, Max: [3]int{6, 5, 9}}
	s := g.SubGrid(box)
	if s.Dims != [3]int{4, 4, 6} {
		t.Fatalf("dims = %v", s.Dims)
	}
	for z := 0; z < s.Dims[2]; z++ {
		for y := 0; y < s.Dims[1]; y++ {
			for x := 0; x < s.Dims[0]; x++ {
				if s.At(x, y, z) != g.At(x+2, y+1, z+3) {
					t.Fatalf("mismatch at %d,%d,%d", x, y, z)
				}
			}
		}
	}
	// Mutating the subgrid must not touch the parent.
	before := g.At(2, 1, 3)
	s.Set(0, 0, 0, before+1)
	if g.At(2, 1, 3) != before {
		t.Error("SubGrid aliases parent storage")
	}
}

func TestNormalize(t *testing.T) {
	g := NewGrid(2, 2, 2)
	for i := range g.Data {
		g.Data[i] = float32(i) * 3
	}
	g.Normalize()
	lo, hi := g.MinMax()
	if lo != 0 || hi != 1 {
		t.Errorf("normalized range = [%v,%v]", lo, hi)
	}
	// Constant grid normalizes to zeros.
	c := NewGrid(2, 2, 2)
	for i := range c.Data {
		c.Data[i] = 5
	}
	c.Normalize()
	if lo, hi := c.MinMax(); lo != 0 || hi != 0 {
		t.Errorf("constant normalize = [%v,%v]", lo, hi)
	}
}

func TestBrickZCoversExactly(t *testing.T) {
	dims := [3]int{10, 12, 17}
	for n := 1; n <= 20; n++ {
		boxes := BrickZ(dims, n)
		total := 0
		prevZ := 0
		for _, b := range boxes {
			if b.Min[2] != prevZ {
				t.Fatalf("n=%d: gap/overlap at z=%d", n, b.Min[2])
			}
			prevZ = b.Max[2]
			if b.Empty() {
				t.Fatalf("n=%d: empty brick %v", n, b)
			}
			total += voxels(b)
		}
		if prevZ != dims[2] || total != 10*12*17 {
			t.Fatalf("n=%d: bricks cover %d voxels to z=%d", n, total, prevZ)
		}
	}
}

// Property: BrickGrid partitions the volume exactly (total voxels conserved,
// no empty bricks).
func TestQuickBrickGridPartition(t *testing.T) {
	f := func(nx, ny, nz uint8) bool {
		dims := [3]int{13, 9, 21}
		boxes := BrickGrid(dims, int(nx%6), int(ny%6), int(nz%6))
		total := 0
		for _, b := range boxes {
			if b.Empty() {
				return false
			}
			total += voxels(b)
		}
		return total == 13*9*21
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFieldsAreInRange(t *testing.T) {
	for name, f := range Fields {
		for _, p := range [][3]float64{{0, 0, 0}, {0.5, 0.5, 0.5}, {1, 1, 1}, {0.3, 0.8, 0.1}} {
			v := f(p[0], p[1], p[2])
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Errorf("%s%v = %v out of [0,1]", name, p, v)
			}
		}
	}
}

func TestFieldByNameFallback(t *testing.T) {
	f1 := FieldByName("no-such-dataset")
	f2 := FieldByName("no-such-dataset")
	if f1(0.3, 0.3, 0.3) != f2(0.3, 0.3, 0.3) {
		t.Error("fallback field not deterministic")
	}
	if FieldByName("plume")(0.5, 0.5, 0.5) != Plume(0.5, 0.5, 0.5) {
		t.Error("named field not returned")
	}
}

func TestFigureDims(t *testing.T) {
	d, err := FigureDims("plume", 4)
	if err != nil {
		t.Fatal(err)
	}
	if d != [3]int{63, 63, 256} {
		t.Errorf("dims = %v", d)
	}
	if _, err := FigureDims("nope", 1); err == nil {
		t.Error("unknown dataset did not error")
	}
	// Downscale floor of 8.
	d, _ = FigureDims("plume", 1000)
	for _, v := range d {
		if v < 8 {
			t.Errorf("dims = %v below floor", d)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Plume, 16, 16, 16)
	b := Generate(Plume, 16, 16, 16)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("Generate not deterministic")
		}
	}
	if a.SizeBytes() != 16*16*16*4 {
		t.Errorf("SizeBytes = %v", a.SizeBytes())
	}
}
