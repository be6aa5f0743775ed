package volume

import (
	"fmt"
	"math"

	"vizsched/internal/units"
)

// Box is an axis-aligned voxel bounding box, inclusive of Min and exclusive
// of Max, in the dataset's voxel coordinates.
type Box struct {
	Min, Max [3]int
}

// Dx, Dy, Dz return the box dimensions along each axis.
func (b Box) Dx() int { return b.Max[0] - b.Min[0] }
func (b Box) Dy() int { return b.Max[1] - b.Min[1] }
func (b Box) Dz() int { return b.Max[2] - b.Min[2] }

// Empty reports whether the box contains no voxels.
func (b Box) Empty() bool { return b.Dx() <= 0 || b.Dy() <= 0 || b.Dz() <= 0 }

// Contains reports whether voxel (x,y,z) lies inside the box.
func (b Box) Contains(x, y, z int) bool {
	return x >= b.Min[0] && x < b.Max[0] &&
		y >= b.Min[1] && y < b.Max[1] &&
		z >= b.Min[2] && z < b.Max[2]
}

// Intersect returns the overlap of two boxes (possibly empty).
func (b Box) Intersect(o Box) Box {
	var r Box
	for i := 0; i < 3; i++ {
		r.Min[i] = max(b.Min[i], o.Min[i])
		r.Max[i] = min(b.Max[i], o.Max[i])
		if r.Max[i] < r.Min[i] {
			r.Max[i] = r.Min[i]
		}
	}
	return r
}

// String renders the box as "[x0,y0,z0)-[x1,y1,z1)".
func (b Box) String() string {
	return fmt.Sprintf("[%d,%d,%d)-[%d,%d,%d)", b.Min[0], b.Min[1], b.Min[2], b.Max[0], b.Max[1], b.Max[2])
}

// Grid is a scalar volume with real voxel data, stored as float32 in x-major
// order (x fastest). Values are expected in [0,1]; the ray caster's transfer
// functions are defined over that range.
type Grid struct {
	Dims [3]int
	Data []float32
}

// NewGrid allocates a zeroed grid of the given dimensions.
func NewGrid(nx, ny, nz int) *Grid {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		panic("volume: non-positive grid dimension")
	}
	return &Grid{Dims: [3]int{nx, ny, nz}, Data: make([]float32, nx*ny*nz)}
}

// Bounds returns the grid's full voxel box.
func (g *Grid) Bounds() Box { return Box{Max: g.Dims} }

// Index returns the flat index of voxel (x,y,z).
func (g *Grid) Index(x, y, z int) int {
	return (z*g.Dims[1]+y)*g.Dims[0] + x
}

// At returns the value at voxel (x,y,z). Out-of-range coordinates are
// clamped to the boundary, which gives the ray caster free boundary
// handling.
func (g *Grid) At(x, y, z int) float32 {
	x = clampInt(x, 0, g.Dims[0]-1)
	y = clampInt(y, 0, g.Dims[1]-1)
	z = clampInt(z, 0, g.Dims[2]-1)
	return g.Data[g.Index(x, y, z)]
}

// Set stores v at voxel (x,y,z); coordinates must be in range.
func (g *Grid) Set(x, y, z int, v float32) { g.Data[g.Index(x, y, z)] = v }

// SizeBytes returns the in-memory size of the voxel payload.
func (g *Grid) SizeBytes() units.Bytes {
	return units.Bytes(len(g.Data) * 4)
}

// Sample returns the trilinearly interpolated value at the continuous
// position (x,y,z) in voxel coordinates (voxel centers at integer
// coordinates).
func (g *Grid) Sample(x, y, z float64) float32 {
	x0 := int(math.Floor(x))
	y0 := int(math.Floor(y))
	z0 := int(math.Floor(z))
	fx := float32(x - float64(x0))
	fy := float32(y - float64(y0))
	fz := float32(z - float64(z0))

	c000 := g.At(x0, y0, z0)
	c100 := g.At(x0+1, y0, z0)
	c010 := g.At(x0, y0+1, z0)
	c110 := g.At(x0+1, y0+1, z0)
	c001 := g.At(x0, y0, z0+1)
	c101 := g.At(x0+1, y0, z0+1)
	c011 := g.At(x0, y0+1, z0+1)
	c111 := g.At(x0+1, y0+1, z0+1)

	c00 := c000 + (c100-c000)*fx
	c10 := c010 + (c110-c010)*fx
	c01 := c001 + (c101-c001)*fx
	c11 := c011 + (c111-c011)*fx
	c0 := c00 + (c10-c00)*fy
	c1 := c01 + (c11-c01)*fy
	return c0 + (c1-c0)*fz
}

// Gradient estimates the central-difference gradient at the continuous
// position, used for shading in the ray caster.
func (g *Grid) Gradient(x, y, z float64) [3]float32 {
	const h = 1.0
	return [3]float32{
		(g.Sample(x+h, y, z) - g.Sample(x-h, y, z)) / 2,
		(g.Sample(x, y+h, z) - g.Sample(x, y-h, z)) / 2,
		(g.Sample(x, y, z+h) - g.Sample(x, y, z-h)) / 2,
	}
}

// SubGrid copies the voxels inside box (clipped to the grid) into a new
// standalone grid. Used to brick a full grid into renderable chunks.
func (g *Grid) SubGrid(box Box) *Grid {
	box = box.Intersect(g.Bounds())
	if box.Empty() {
		panic(fmt.Sprintf("volume: empty subgrid %v of %v", box, g.Bounds()))
	}
	s := NewGrid(box.Dx(), box.Dy(), box.Dz())
	for z := 0; z < s.Dims[2]; z++ {
		for y := 0; y < s.Dims[1]; y++ {
			srcBase := g.Index(box.Min[0], box.Min[1]+y, box.Min[2]+z)
			dstBase := s.Index(0, y, z)
			copy(s.Data[dstBase:dstBase+s.Dims[0]], g.Data[srcBase:srcBase+s.Dims[0]])
		}
	}
	return s
}

// MinMax returns the smallest and largest values in the grid.
func (g *Grid) MinMax() (lo, hi float32) {
	lo, hi = g.Data[0], g.Data[0]
	for _, v := range g.Data {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Normalize rescales the grid's values to [0,1] in place. A constant grid
// becomes all zeros.
func (g *Grid) Normalize() {
	lo, hi := g.MinMax()
	span := hi - lo
	if span == 0 {
		for i := range g.Data {
			g.Data[i] = 0
		}
		return
	}
	inv := 1 / span
	for i, v := range g.Data {
		g.Data[i] = (v - lo) * inv
	}
}

// BrickZ slices the grid into n bricks along the z axis (the axis volume
// renderers conventionally split first because slabs keep compositing order
// simple). Returns the brick boxes in front-to-back z order. n is clamped to
// the z dimension.
func BrickZ(dims [3]int, n int) []Box {
	if n < 1 {
		n = 1
	}
	if n > dims[2] {
		n = dims[2]
	}
	boxes := make([]Box, 0, n)
	for i := 0; i < n; i++ {
		z0 := dims[2] * i / n
		z1 := dims[2] * (i + 1) / n
		boxes = append(boxes, Box{
			Min: [3]int{0, 0, z0},
			Max: [3]int{dims[0], dims[1], z1},
		})
	}
	return boxes
}

// BrickGrid slices dims into an nx×ny×nz grid of near-equal boxes, in
// z-major order. Used when a dataset is decomposed into more chunks than a
// single axis split can provide.
func BrickGrid(dims [3]int, nx, ny, nz int) []Box {
	clamp := func(n, d int) int {
		if n < 1 {
			return 1
		}
		if n > d {
			return d
		}
		return n
	}
	nx, ny, nz = clamp(nx, dims[0]), clamp(ny, dims[1]), clamp(nz, dims[2])
	boxes := make([]Box, 0, nx*ny*nz)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				boxes = append(boxes, Box{
					Min: [3]int{dims[0] * i / nx, dims[1] * j / ny, dims[2] * k / nz},
					Max: [3]int{dims[0] * (i + 1) / nx, dims[1] * (j + 1) / ny, dims[2] * (k + 1) / nz},
				})
			}
		}
	}
	return boxes
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
