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
	nx, ny, nz int // cells per axis
	nxy        int // cells per slice
	maxX, maxY int // last voxel index per axis, for clamping a base
	maxZ       int
	bound      []float32
}

// buildMacrocells scans the grid once per cell block.
func buildMacrocells(g *volume.Grid) *macrocells {
	cells := func(n int) int { return (n + cellEdge - 1) >> cellShift }
	cx, cy, cz := cells(g.Dims[0]), cells(g.Dims[1]), cells(g.Dims[2])
	m := &macrocells{
		nx: cx, ny: cy, nz: cz, nxy: cx * cy,
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

// cell returns the indices of the cell holding a sample base, which may lie
// outside the grid: Grid.At clamps the voxels such a sample reads, and so
// does this.
func (m *macrocells) cell(x0, y0, z0 int) (i, j, k int) {
	return min(max(x0, 0), m.maxX) >> cellShift,
		min(max(y0, 0), m.maxY) >> cellShift,
		min(max(z0, 0), m.maxZ) >> cellShift
}

// at returns the bound for a sample base.
func (m *macrocells) at(x0, y0, z0 int) float32 {
	i, j, k := m.cell(x0, y0, z0)
	return m.bound[k*m.nxy+j*m.nx+i]
}

// Empty-space leaping (Šrámek & Kaufman, "Fast ray-tracing of rectilinear
// volume data using distance transforms", IEEE TVCG 6(3), 2000). A leap map
// holds, per macrocell, the Chebyshev distance in cells to the nearest cell
// whose bound is not below a threshold, capped at 255: 0 for a cell whose
// samples must be fetched, r > 0 for an empty one, whose cells within r−1
// on every axis are empty too. The composite march at a sample of an empty
// cell computes once where its ray leaves that box and passes every sample
// before it with additions alone (DESIGN.md §5.15 "Leaping").
const (
	// leapEps is how far, in voxels, a box's faces are moved inward. A
	// leap is taken only where the rounding of the sample position and of
	// the end t is provably under a quarter of it (leapRoundoff).
	leapEps = 1.0 / (1 << 20)
	// leapCap is the largest distance a map stores.
	leapCap = 255
)

// leapMap is a brick's distance map for one threshold.
type leapMap struct {
	below float32 // a cell is empty when its bound is below this
	c     *macrocells
	dist  []uint8
}

// buildLeapMap derives the map from the macrocells in three separable 1-D
// passes. With f the distance along x to the nearest full cell of the row,
// the Chebyshev distance is min over y′ of max(|y−y′|, f(y′)), and the same
// again over z′; every pass is that min-max, and capping its input at 255
// caps its output at 255, exactly.
func buildLeapMap(c *macrocells, below float32) *leapMap {
	l := &leapMap{below: below, c: c, dist: make([]uint8, len(c.bound))}
	for i, b := range c.bound {
		if b < below { // NaN and +Inf bounds are never empty
			l.dist[i] = leapCap
		}
	}
	line := make([]uint8, max(c.nx, c.ny, c.nz))
	for k := 0; k < c.nz; k++ {
		for j := 0; j < c.ny; j++ {
			minMaxPass(l.dist, line[:c.nx], k*c.nxy+j*c.nx, 1)
		}
	}
	for k := 0; k < c.nz; k++ {
		for i := 0; i < c.nx; i++ {
			minMaxPass(l.dist, line[:c.ny], k*c.nxy+i, c.nx)
		}
	}
	for j := 0; j < c.ny; j++ {
		for i := 0; i < c.nx; i++ {
			minMaxPass(l.dist, line[:c.nz], j*c.nx+i, c.nxy)
		}
	}
	return l
}

// minMaxPass replaces the line of len(line) values of d starting at first,
// stride apart, by g(i) = min over j of max(|i−j|, f(j)). It searches
// outward from i and stops at the distance of the best candidate so far,
// which no farther cell can beat.
func minMaxPass(d, line []uint8, first, stride int) {
	for i := range line {
		line[i] = d[first+i*stride]
	}
	n := len(line)
	for i := range line {
		best := int(line[i])
		for r := 1; r < best && (i-r >= 0 || i+r < n); r++ {
			if i-r >= 0 {
				best = min(best, max(r, int(line[i-r])))
			}
			if i+r < n {
				best = min(best, max(r, int(line[i+r])))
			}
		}
		d[first+i*stride] = uint8(best)
	}
}

// at returns the distance of the cell of a sample base, and the cell's
// indices.
func (l *leapMap) at(x0, y0, z0 int) (r, i, j, k int) {
	i, j, k = l.c.cell(x0, y0, z0)
	return int(l.dist[k*l.c.nxy+j*l.c.nx+i]), i, j, k
}

// leapFace is the face through which a ray leaves the empty box of radius
// r−1 around cell c of n on one axis, the far one in the direction of inv.
// Each face is moved leapEps inward, and a face on the grid's edge is
// ±MaxFloat64, out of every ray's reach, because a base beyond it is
// clamped into the box.
func leapFace(c, n, r int, inv float64) float64 {
	if inv > 0 {
		if c+r >= n {
			return math.MaxFloat64
		}
		return float64((c+r)<<cellShift) - leapEps
	}
	if c < r {
		return -math.MaxFloat64
	}
	return float64((c-r+1)<<cellShift) + leapEps
}

// leapRoundoff bounds, in voxels, how far rounding can carry a sample that
// a leap passes over beyond the face its end t was computed for, on a ray
// from an eye with coordinates at most eye in magnitude, for t in
// [0, tmax], with fd the largest of the world→voxel scales, origin the
// largest grid origin and extent the largest grid dimension. With u the
// unit roundoff and w = eye + tmax the largest |e + d·t| (|d| = 1):
//
//   - the position (e + d·t)·fd − origin − 0.5 is five roundings, so it
//     lies within γ₈·(fd·(tmax + 4w) + 2·origin + 1) of the exact line;
//   - the end t + (face − p)·(1/v), v = d·fd, is t plus D/v to within
//     relative error γ₆ in the quotient (the difference, 1/v's two
//     roundings, the product) and one rounding of the sum, so it moves the
//     exact line at most γ₈·(D + fd·tmax) past the face, where
//     D = |face − p| ≤ extent + 4 + fd·w + origin + 1;
//   - a passed sample's rounded position and the position at the leap's
//     start each err once, so 2·position + end.
//
// The rounded position is monotone in t, so nothing else can leave the
// box: a passed sample lies between the leap's start, inside the box, and
// the exact line at its face moved inward by leapEps, within the bound.
func leapRoundoff(eye, tmax, fd, origin, extent float64) float64 {
	w := eye + tmax
	pos := gamma(8) * (fd*(tmax+4*w) + 2*origin + 1)
	end := gamma(8) * (fd*(tmax+w) + origin + extent + 5)
	return 2*pos + end
}
