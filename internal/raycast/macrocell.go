package raycast

import (
	"math"

	"vizsched/internal/volume"
)

// Empty-space skipping. A macrocell stands for a 4³ block of sample *bases*:
// a sample at voxel position (x,y,z) has base (⌊x⌋,⌊y⌋,⌊z⌋) and reads the
// eight voxels base and base+1 per axis, clamped to the grid, so the cell
// holding bases 4c..4c+3 is bounded over voxels 4c..4c+4 — a 5³ block. What
// the cell stores is an upper bound for every trilinear sample whose base
// falls in it. The march loops compare that bound with what it would take
// for a sample to matter (a visible transfer-function value, the running MIP
// peak, the iso level) and, below it, step past the sample without fetching.

const (
	cellShift = 2 // log2 of the macrocell edge, in voxels
	cellEdge  = 1 << cellShift

	// lerpSlack is the relative margin added to a cell's maximum. A float32
	// lerp a+(b−a)·f can land above max(a,b) by a few ulps of the larger
	// magnitude (under 5ε·M with ε = 2⁻²⁴), and a trilinear sample nests three;
	// 32ε covers them twice over.
	lerpSlack = 1.0 / (1 << 19)

	// cellValueLimit is the largest voxel magnitude a skippable cell may
	// hold: well below where b−a could overflow. Anything larger, ±Inf or
	// NaN makes the cell's bound +Inf, so its samples are always fetched.
	cellValueLimit = 1e30
)

// macrocells is the per-brick grid of sample bounds.
type macrocells struct {
	nx, nxy    int // cells per row, per slice
	maxX, maxY int // last voxel index per axis, for clamping a base
	maxZ       int
	bound      []float32
}

// buildMacrocells scans the grid once per cell block.
func buildMacrocells(g *volume.Grid) *macrocells {
	cells := func(n int) int { return (n + cellEdge - 1) >> cellShift }
	cx, cy, cz := cells(g.Dims[0]), cells(g.Dims[1]), cells(g.Dims[2])
	m := &macrocells{
		nx: cx, nxy: cx * cy,
		maxX: g.Dims[0] - 1, maxY: g.Dims[1] - 1, maxZ: g.Dims[2] - 1,
		bound: make([]float32, cx*cy*cz),
	}
	inf := float32(math.Inf(1))
	for k := 0; k < cz; k++ {
		z0, z1 := k<<cellShift, min(k<<cellShift+cellEdge, m.maxZ)
		for j := 0; j < cy; j++ {
			y0, y1 := j<<cellShift, min(j<<cellShift+cellEdge, m.maxY)
			for i := 0; i < cx; i++ {
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
	return m
}

// at returns the bound for a sample base, which may lie outside the grid:
// Grid.At clamps the voxels such a sample reads, and so does this.
func (m *macrocells) at(x0, y0, z0 int) float32 {
	x0 = min(max(x0, 0), m.maxX)
	y0 = min(max(y0, 0), m.maxY)
	z0 = min(max(z0, 0), m.maxZ)
	return m.bound[(z0>>cellShift)*m.nxy+(y0>>cellShift)*m.nx+(x0>>cellShift)]
}
