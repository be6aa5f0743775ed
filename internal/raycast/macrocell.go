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
	cellShift = volume.CellShift // log2 of the macrocell edge, in voxels
	cellEdge  = volume.CellEdge

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

// cellGrid returns the macrocell geometry of g, without bounds.
func cellGrid(g *volume.Grid) macrocells {
	c := volume.Cells(g.Dims)
	return macrocells{
		nx: c[0], ny: c[1], nz: c[2], nxy: c[0] * c[1],
		maxX: g.Dims[0] - 1, maxY: g.Dims[1] - 1, maxZ: g.Dims[2] - 1,
	}
}

// buildMacrocells computes every cell's bound in separable passes, one per
// axis: per z slice, the minimum and maximum of each row's x range of each
// cell, then of each cell's y range of those, folded into the one or two
// layers of cells whose z range holds the slice. Every voxel is compared
// about 1.25 times instead of 5³/4³ ≈ 2 times with a branch. The validity
// test runs once per cell: a NaN voxel makes its cell's minimum and maximum
// NaN (the min and max builtins propagate it), which fails the test as an
// infinite or overlarge one does. The minimum and maximum of a set do not
// depend on the order it is visited in, so the bounds are, bit for bit,
// those of a scan of each cell's 5³ block.
func buildMacrocells(g *volume.Grid) *macrocells {
	m := cellGrid(g)
	nx, ny := g.Dims[0], g.Dims[1]
	inf := float32(math.Inf(1))
	m.bound = make([]float32, m.nxy*m.nz)
	lo, hi := make([]float32, len(m.bound)), m.bound
	for c := range lo {
		lo[c], hi[c] = inf, -inf
	}
	// rowLo/rowHi: the x pass of one slice, per row y and cell column i;
	// planeLo/planeHi: its y pass, per cell (i, j).
	rowLo, rowHi := make([]float32, m.nx*ny), make([]float32, m.nx*ny)
	planeLo, planeHi := make([]float32, m.nxy), make([]float32, m.nxy)
	for z := 0; z <= m.maxZ; z++ {
		slice := g.Data[z*nx*ny : (z+1)*nx*ny]
		for y := 0; y < ny; y++ {
			row := slice[y*nx : (y+1)*nx]
			rl, rh := rowLo[y*m.nx:(y+1)*m.nx], rowHi[y*m.nx:(y+1)*m.nx]
			for i := range rl {
				x0 := i << cellShift
				if x0+cellEdge < nx { // a whole cell: its five voxels at once
					v := row[x0 : x0+cellEdge+1 : x0+cellEdge+1]
					rl[i] = min(v[0], v[1], v[2], v[3], v[4])
					rh[i] = max(v[0], v[1], v[2], v[3], v[4])
					continue
				}
				l, h := inf, -inf
				for _, v := range row[x0:] {
					l, h = min(l, v), max(h, v)
				}
				rl[i], rh[i] = l, h
			}
		}
		for j := 0; j < m.ny; j++ {
			y0 := j << cellShift
			pl, ph := planeLo[j*m.nx:(j+1)*m.nx], planeHi[j*m.nx:(j+1)*m.nx]
			copy(pl, rowLo[y0*m.nx:(y0+1)*m.nx])
			copy(ph, rowHi[y0*m.nx:(y0+1)*m.nx])
			for y := y0 + 1; y <= min(y0+cellEdge, m.maxY); y++ {
				rl, rh := rowLo[y*m.nx:(y+1)*m.nx], rowHi[y*m.nx:(y+1)*m.nx]
				for i := range pl {
					pl[i], ph[i] = min(pl[i], rl[i]), max(ph[i], rh[i])
				}
			}
		}
		// Cell layer k reads slices 4k..4k+4: slice z is in layer z>>2, and
		// in the layer before when it is that layer's last.
		for k := z >> cellShift; k >= 0 && k<<cellShift+cellEdge >= z; k-- {
			ll, lh := lo[k*m.nxy:(k+1)*m.nxy], hi[k*m.nxy:(k+1)*m.nxy]
			for c := range ll {
				ll[c], lh[c] = min(ll[c], planeLo[c]), max(lh[c], planeHi[c])
			}
		}
	}
	for c, h := range hi {
		if l := lo[c]; l >= -cellValueLimit && h <= cellValueLimit {
			m.bound[c] = h + max(h, -l)*lerpSlack
		} else {
			m.bound[c] = inf
		}
	}
	return &m
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

// SkipSection computes what a brick file stores beside g's voxels for
// renders through tf (volume.Skip; DESIGN.md §5.16): the macrocell bounds,
// and the leap map for tf's transparent range. A transfer function that is
// not a preset's prepared form (PresetTF) has no known range; its map marks
// every cell full and is never used.
func SkipSection(g *volume.Grid, tf TransferFunc) volume.Skip {
	below := float32(math.Inf(-1))
	if c, ok := tf.(*compiledTF); ok {
		below = c.zeroBelow
	}
	c := buildMacrocells(g)
	return volume.Skip{Below: below, Bound: c.bound, Leap: buildLeapMap(c, below).dist}
}

// leapMap is a brick's distance map for one threshold.
type leapMap struct {
	below float32 // a cell is empty when its bound is below this
	c     *macrocells
	dist  []uint8
	// anyEmpty says whether some cell is: a map without one has nothing
	// to leap across, and a render under its threshold nothing to skip.
	anyEmpty bool
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
			l.anyEmpty = true
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
