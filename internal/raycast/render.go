package raycast

import (
	"fmt"
	"image"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"vizsched/internal/img"
	"vizsched/internal/volume"
)

// Mode selects the ray integration strategy.
type Mode int

// Render modes.
const (
	// ModeComposite is classic emission-absorption volume rendering through
	// a transfer function (the default).
	ModeComposite Mode = iota
	// ModeMIP is maximum-intensity projection: each pixel shows the largest
	// sample along its ray, mapped through the transfer function — the view
	// radiologists and plasma physicists reach for first.
	ModeMIP
	// ModeIso renders the first crossing of IsoValue as a shaded opaque
	// surface.
	ModeIso
)

// Options control a render pass.
type Options struct {
	// Width and Height of the output image in pixels.
	Width, Height int
	// Mode selects composite (default), MIP, or isosurface integration.
	Mode Mode
	// IsoValue is the level-set threshold for ModeIso (default 0.5).
	IsoValue float32
	// Step is the ray-march step in normalized world units. Zero selects
	// half a voxel of the full dataset, the usual quality/speed tradeoff.
	Step float64
	// Shading enables gradient (central-difference) diffuse shading.
	Shading bool
	// Light is the directional light used when Shading is on; zero value
	// selects a headlight-ish default.
	Light Vec3
	// Parallel renders scanline bands on all CPUs; single-threaded rendering
	// remains available for deterministic profiling.
	Parallel bool
	// Yield, when set, is called by every band after each scanline it
	// renders: the seam at which a background render gives the processor up
	// (the live worker sets it on batch tasks, DESIGN.md §5.18). It may
	// block. The pixels do not depend on it.
	Yield func()
}

func (o *Options) fill() {
	if o.Width <= 0 {
		o.Width = 256
	}
	if o.Height <= 0 {
		o.Height = 256
	}
	if o.Light == (Vec3{}) {
		o.Light = Vec3{-0.5, -1, -0.3}.Normalize()
	}
	if o.IsoValue <= 0 {
		o.IsoValue = 0.5
	}
}

// Brick is a renderable piece of a dataset: voxel data plus its placement
// inside the full dataset, which defines its world-space bounding box when
// the full dataset is mapped to the unit cube.
//
// Grid may carry ghost voxels beyond Extent (see MakeBrick); GridOrigin is
// the full-dataset coordinate of Grid's voxel (0,0,0). Ghost layers make
// trilinear interpolation at brick seams agree with a monolithic render —
// the same trick real distributed volume renderers use.
//
// A Brick skips empty space with a macrocell grid and, in composite, leaps
// across it with a leap map for one threshold (see macrocell.go): one
// float32 and one byte per 4³ voxels, so about 1/64 + 1/256 of
// Grid.SizeBytes() on top of it — the one piece of resident memory a cache
// that charges the grid's size does not count. A brick read from a brick
// file has both from the start (AdoptSkip: the file stores them, computed
// when the dataset was bricked). One built in memory (MakeBrick, RenderFull)
// grows the macrocells on its second render and the leap map at its first
// composite render after that, for that render's threshold. They live and
// die with the Brick; Grid.Data must not change once the Brick has been
// rendered. Share a Brick by pointer, never by copy.
type Brick struct {
	Grid *volume.Grid
	// Extent is the brick's logical voxel box in full-dataset coordinates.
	Extent volume.Box
	// GridOrigin is where Grid's first voxel sits in full-dataset
	// coordinates. Defaults to Extent.Min when constructed literally.
	GridOrigin [3]int
	// FullDims are the full dataset's voxel dimensions.
	FullDims [3]int

	// renders counts RenderBrick calls until cells is published.
	renders atomic.Uint32
	cells   atomic.Pointer[macrocells]
	leap    atomic.Pointer[leapMap] // for the first composite threshold it was rendered at, or the stored one
	// stored holds what AdoptSkip publishes, so a load allocates nothing
	// for it.
	stored struct {
		cells macrocells
		leap  leapMap
	}
}

// AdoptSkip publishes a stored skip section — SkipSection's, read back from
// a brick file — as the brick's macrocells and leap map, so its first
// render skips and leaps like a resident brick's. Call it before the brick
// is rendered or shared. The section must have one bound and one distance
// per cell of the grid, and is trusted as the grid is: a bound below a
// sample it stands for would change pixels.
func (b *Brick) AdoptSkip(s volume.Skip) error {
	c := volume.Cells(b.Grid.Dims)
	if n := c[0] * c[1] * c[2]; len(s.Bound) != n || len(s.Leap) != n {
		return fmt.Errorf("raycast: a %v grid has %d cells, the skip section %d bounds and %d distances",
			b.Grid.Dims, n, len(s.Bound), len(s.Leap))
	}
	b.stored.cells = cellGrid(b.Grid)
	b.stored.cells.bound = s.Bound
	b.stored.leap = leapMap{below: s.Below, c: &b.stored.cells, dist: s.Leap,
		anyEmpty: slices.ContainsFunc(s.Leap, func(d uint8) bool { return d != 0 })}
	b.cells.Store(&b.stored.cells)
	b.leap.Store(&b.stored.leap)
	return nil
}

// Slab returns the memory the brick reads — its voxels and, once it has
// them, its bounds and leap map — for a caller to read the next brick file
// into once no render will read this brick again.
func (b *Brick) Slab() volume.Slab {
	s := volume.Slab{Voxels: b.Grid.Data}
	if c := b.cells.Load(); c != nil {
		s.Bound = c.bound
	}
	if l := b.leap.Load(); l != nil {
		s.Leap = l.dist
	}
	return s
}

// macrocells returns the brick's skip structure, or nil while it has none.
// A brick without a stored one (AdoptSkip) that is rendered once never pays
// for one: the render that finds the brick already rendered builds it, and
// renders running beside that one go without until it is published.
func (b *Brick) macrocells() *macrocells {
	if c := b.cells.Load(); c != nil {
		return c
	}
	if b.renders.Add(1) != 2 {
		return nil
	}
	c := buildMacrocells(b.Grid)
	b.cells.Store(c)
	return c
}

// leapMap returns the brick's leap map for a composite threshold, or nil:
// no macrocells yet, no threshold (−Inf, NaN), or a map published for
// another threshold. A brick read from a file has the map stored for its
// dataset's transfer function; on one built in memory, the first render
// with macrocells and a threshold builds the map and publishes it. It is
// never replaced: the service fixes a dataset's transfer function, so the
// threshold is steady, and a render under another one skips per sample,
// building nothing.
func (b *Brick) leapMap(c *macrocells, below float32) *leapMap {
	if c == nil || !(below > float32(math.Inf(-1))) {
		return nil
	}
	l := b.leap.Load()
	if l == nil {
		b.leap.CompareAndSwap(nil, buildLeapMap(c, below))
		l = b.leap.Load()
	}
	if l.below != below {
		return nil
	}
	return l
}

// GhostBox is the voxel box a brick's grid covers: its extent plus a
// one-voxel ghost margin, clipped to the dataset's dimensions.
func GhostBox(extent volume.Box, fullDims [3]int) volume.Box {
	return volume.Box{
		Min: [3]int{extent.Min[0] - 1, extent.Min[1] - 1, extent.Min[2] - 1},
		Max: [3]int{extent.Max[0] + 1, extent.Max[1] + 1, extent.Max[2] + 1},
	}.Intersect(volume.Box{Max: fullDims})
}

// MakeBrick carves the box out of a full grid with a one-voxel ghost margin
// (clipped to the dataset bounds) so that seam interpolation matches a
// monolithic render.
func MakeBrick(full *volume.Grid, box volume.Box) *Brick {
	ghost := GhostBox(box, full.Dims)
	return &Brick{
		Grid:       full.SubGrid(ghost),
		Extent:     box,
		GridOrigin: ghost.Min,
		FullDims:   full.Dims,
	}
}

// WorldBounds returns the brick's axis-aligned box in the normalized unit
// cube occupied by the full dataset.
func (b *Brick) WorldBounds() (lo, hi Vec3) {
	fd := b.FullDims
	lo = Vec3{
		float64(b.Extent.Min[0]) / float64(fd[0]),
		float64(b.Extent.Min[1]) / float64(fd[1]),
		float64(b.Extent.Min[2]) / float64(fd[2]),
	}
	hi = Vec3{
		float64(b.Extent.Max[0]) / float64(fd[0]),
		float64(b.Extent.Max[1]) / float64(fd[1]),
		float64(b.Extent.Max[2]) / float64(fd[2]),
	}
	return lo, hi
}

// Fragment is the result of rendering one brick: a full-viewport image and
// the view depth used to order fragments during compositing. Depth is the
// ray parameter at the brick's world-space center as seen from the camera.
type Fragment struct {
	Image *img.Image
	// Bounds is the smallest rectangle holding every pixel of Image that is
	// not transparent black; empty when the brick left no mark on the frame
	// (off-screen, or classified to nothing). Outside it Image is cleared, so
	// a consumer may ship or composite Bounds alone and lose nothing.
	Bounds image.Rectangle
	Depth  float64
	// Samples counts the sample positions the rays visited inside the brick;
	// Skipped is how many of them empty-space skipping passed over without
	// fetching a voxel.
	Samples, Skipped int64
}

// RenderBrick ray-casts one brick against the camera and returns its
// fragment. Pixels whose rays miss the brick stay transparent, which keeps
// the sort-last composite correct for non-overlapping bricks. The fragment's
// image comes from img.Get; a caller that is done with it may img.Put it.
//
// Every shortcut the march takes is exact: the pixels are, float32 for
// float32, those of the plain loop kept in the tests as
// renderBrickReference (DESIGN.md §5.15). One of them is that only the
// pixels inside the brick's projected rectangle (view.project) get a ray.
func RenderBrick(b *Brick, cam *Camera, tf TransferFunc, opt Options) *Fragment {
	opt.fill()
	out := img.Get(opt.Width, opt.Height)
	m := newMarch(b, cam, tf, opt)

	rows := m.rect.Dy()
	if workers := min(runtime.GOMAXPROCS(0), rows); opt.Parallel && workers > 1 {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			y0 := m.rect.Min.Y + rows*w/workers
			y1 := m.rect.Min.Y + rows*(w+1)/workers
			wg.Add(1)
			go func() {
				defer wg.Done()
				m.rows(out, y0, y1)
			}()
		}
		wg.Wait()
	} else {
		m.rows(out, m.rect.Min.Y, m.rect.Max.Y)
	}

	center := m.lo.Add(m.hi).Scale(0.5)
	return &Fragment{
		Image:   out,
		Bounds:  m.bounds,
		Depth:   center.Sub(cam.Eye).Len(),
		Samples: m.samples.Load(),
		Skipped: m.skipped.Load(),
	}
}

// march is what the rays of one RenderBrick call share. It is filled in once
// and only read while the bands run, except for the two counters and the
// bounds, which each band adds to once, when it is done.
type march struct {
	opt    Options
	view   view
	lo, hi Vec3 // the brick's world box
	// rect holds every pixel whose ray can meet the box; the bands cast
	// nothing outside it.
	rect image.Rectangle

	step      float64
	stepRatio float64       // step over the opacity-correction reference step
	opacity   *opacityTable // for stepRatio; nil: opacityCorrect per sample

	// World → grid-local voxel coordinates: p·fd − origin − 0.5 per axis.
	fd, origin Vec3

	grid    *volume.Grid
	data    []float32
	nx, nxy int
	// inner is Dims−1 per axis: a sample whose base b has 0 <= b < inner on
	// every axis reads eight voxels inside the grid, no clamping needed.
	inner [3]uint

	tf  TransferFunc
	ctf *compiledTF // tf when it is a prepared Piecewise, else nil

	cells     *macrocells // nil on an in-memory brick's first render, and in a composite one with no empty cell
	zeroBelow float32     // samples below this classify to nothing; −Inf: none known
	// leap is the brick's leap map for zeroBelow, set only in composite
	// and only where the rounding of sample positions and leap ends is
	// provably under leapEps/4 for every ray of this render, so a leap is
	// exact. Otherwise nil, and composite skips per sample.
	leap *leapMap

	samples, skipped atomic.Int64

	boundsMu sync.Mutex
	bounds   image.Rectangle // of the non-transparent pixels written so far
}

func newMarch(b *Brick, cam *Camera, tf TransferFunc, opt Options) *march {
	g := b.Grid
	m := &march{
		opt:  opt,
		view: cam.view(float64(opt.Width) / float64(opt.Height)),
		step: opt.Step,
		fd:   Vec3{float64(b.FullDims[0]), float64(b.FullDims[1]), float64(b.FullDims[2])},
		origin: Vec3{
			float64(b.GridOrigin[0]), float64(b.GridOrigin[1]), float64(b.GridOrigin[2]),
		},
		grid: g, data: g.Data, nx: g.Dims[0], nxy: g.Dims[0] * g.Dims[1],
		inner:     [3]uint{uint(g.Dims[0] - 1), uint(g.Dims[1] - 1), uint(g.Dims[2] - 1)},
		tf:        tf,
		cells:     b.macrocells(),
		zeroBelow: float32(math.Inf(-1)),
	}
	m.lo, m.hi = b.WorldBounds()
	m.rect = m.view.project(m.lo, m.hi, opt.Width, opt.Height)
	if m.step <= 0 {
		maxDim := float64(max(b.FullDims[0], max(b.FullDims[1], b.FullDims[2])))
		m.step = 0.5 / maxDim
	}
	const refStep = 1.0 / 256 // opacity-correction reference step
	m.stepRatio = m.step / refStep
	m.opacity = opacityTableFor(m.stepRatio)
	if c, ok := tf.(*compiledTF); ok {
		m.ctf, m.zeroBelow = c, c.zeroBelow
	}
	if opt.Mode != ModeMIP && opt.Mode != ModeIso {
		e, o := m.view.eye, m.origin
		// Every ray leaves the box within this t, with room for rounding.
		far := 2 * (m.lo.Sub(e).Len() + m.hi.Sub(m.lo).Len())
		l := b.leapMap(m.cells, m.zeroBelow)
		switch {
		case l != nil && !l.anyEmpty:
			// No cell is empty under this threshold: no sample would be
			// skipped, so none pays for looking.
			m.cells = nil
		case l != nil && leapRoundoff(
			max(math.Abs(e.X), math.Abs(e.Y), math.Abs(e.Z)), far,
			max(m.fd.X, m.fd.Y, m.fd.Z),
			max(math.Abs(o.X), math.Abs(o.Y), math.Abs(o.Z)),
			float64(max(g.Dims[0], g.Dims[1], g.Dims[2])),
		) <= leapEps/4:
			m.leap = l
		}
	}
	return m
}

// rows renders the part of scanlines y0..y1-1 that lies inside m.rect into
// out, and folds the bounds of what it drew into m.bounds.
func (m *march) rows(out *img.Image, y0, y1 int) {
	w, h := m.opt.Width, m.opt.Height
	var n, skipped int64
	var drawn image.Rectangle
	for y := y0; y < y1; y++ {
		v := (float64(y) + 0.5) / float64(h)
		row := out.Pix[y*w : (y+1)*w]
		for x := m.rect.Min.X; x < m.rect.Max.X; x++ {
			u := (float64(x) + 0.5) / float64(w)
			ray := m.view.ray(u, v)
			tmin, tmax, ok := intersectAABB(ray, m.lo, m.hi)
			if !ok || tmax+m.step/2 == tmax {
				// No hit — or an eye so far off that a step is below the
				// rounding of t (step < ulp(tmax)): `t += step` would leave t
				// where it is and the march would never end. When the test is
				// false every t <= tmax strictly advances.
				continue
			}
			// Phase-align sampling to global multiples of step so that
			// bricks along the same ray sample the exact same positions
			// a monolithic render would; the half-open [tmin,tmax)
			// interval prevents double-sampling shared slab boundaries.
			t0 := math.Ceil(tmin/m.step) * m.step
			var ns, nk int
			switch m.opt.Mode {
			case ModeMIP:
				row[x], ns, nk = m.mip(ray.Dir, t0, tmax)
			case ModeIso:
				row[x], ns, nk = m.iso(ray.Dir, t0, tmax)
			default:
				row[x], ns, nk = m.composite(ray.Dir, t0, tmax)
			}
			n += int64(ns)
			skipped += int64(nk)
			if row[x] != (img.RGBA{}) {
				drawn = drawn.Union(image.Rect(x, y, x+1, y+1))
			}
		}
		if m.opt.Yield != nil {
			m.opt.Yield()
		}
	}
	m.samples.Add(n)
	m.skipped.Add(skipped)
	m.boundsMu.Lock()
	m.bounds = m.bounds.Union(drawn)
	m.boundsMu.Unlock()
}

// The three march loops below share a shape. t advances by repeated
// addition and the position is eye + dir·t, then ·fd − origin − 0.5, in that
// order: the sample positions are the reference's to the last bit. A sample
// in empty space costs that arithmetic and one macrocell or leap-map load,
// and the samples a composite leap passes one addition each.
//
// A leap, at a sample in a cell at distance r > 0: the ray leaves the empty
// box of radius r−1 around the cell at the first face it meets, at
// t + (face − p)·(1/v) per axis, v = d·fd, and every sample before that end
// is passed by addition alone and counted. inv holds 1/v, computed at the
// ray's first leap (the zero vector until then: no component of it is ever
// zero). An end that is NaN, or at most t, takes no leap.

// fetch is Grid.Sample with the clamping taken out of the common case: eight
// direct loads when the base is interior, Grid.Sample itself on the brick's
// outer voxel shell. Same subtractions, same lerps, same order.
func (m *march) fetch(x, y, z float64, x0, y0, z0 int) float32 {
	if uint(x0) >= m.inner[0] || uint(y0) >= m.inner[1] || uint(z0) >= m.inner[2] {
		return m.grid.Sample(x, y, z)
	}
	fx := float32(x - float64(x0))
	fy := float32(y - float64(y0))
	fz := float32(z - float64(z0))
	lo := m.data[z0*m.nxy+y0*m.nx+x0:]
	hi := lo[m.nxy:]
	c000, c100 := lo[0], lo[1]
	c010, c110 := lo[m.nx], lo[m.nx+1]
	c001, c101 := hi[0], hi[1]
	c011, c111 := hi[m.nx], hi[m.nx+1]
	c00 := c000 + (c100-c000)*fx
	c10 := c010 + (c110-c010)*fx
	c01 := c001 + (c101-c001)*fx
	c11 := c011 + (c111-c011)*fx
	c0 := c00 + (c10-c00)*fy
	c1 := c01 + (c11-c01)*fy
	return c0 + (c1-c0)*fz
}

// shade returns the diffuse factor at a voxel position from the
// central-difference gradient, Grid.Gradient's six samples through fetch.
func (m *march) shade(x, y, z float64) float32 {
	at := func(x, y, z float64) float32 {
		return m.fetch(x, y, z, int(math.Floor(x)), int(math.Floor(y)), int(math.Floor(z)))
	}
	gx := (at(x+1, y, z) - at(x-1, y, z)) / 2
	gy := (at(x, y+1, z) - at(x, y-1, z)) / 2
	gz := (at(x, y, z+1) - at(x, y, z-1)) / 2
	return diffuse(Vec3{float64(gx), float64(gy), float64(gz)}, m.opt.Light)
}

// composite is emission-absorption front to back with early termination.
func (m *march) composite(d Vec3, t0, tmax float64) (acc img.RGBA, n, skipped int) {
	e, leap, step := m.view.eye, m.leap, m.step
	skip := m.cells != nil && m.zeroBelow > float32(math.Inf(-1))
	var inv Vec3
	for t := t0; t < tmax; t += step {
		n++
		x := (e.X+d.X*t)*m.fd.X - m.origin.X - 0.5
		y := (e.Y+d.Y*t)*m.fd.Y - m.origin.Y - 0.5
		z := (e.Z+d.Z*t)*m.fd.Z - m.origin.Z - 0.5
		x0, y0, z0 := int(math.Floor(x)), int(math.Floor(y)), int(math.Floor(z))
		if leap != nil {
			if r, i, j, k := leap.at(x0, y0, z0); r > 0 {
				if inv == (Vec3{}) {
					inv = Vec3{1 / (d.X * m.fd.X), 1 / (d.Y * m.fd.Y), 1 / (d.Z * m.fd.Z)}
				}
				end := min(tmax,
					t+(leapFace(i, leap.c.nx, r, inv.X)-x)*inv.X,
					t+(leapFace(j, leap.c.ny, r, inv.Y)-y)*inv.Y,
					t+(leapFace(k, leap.c.nz, r, inv.Z)-z)*inv.Z)
				passed := 0
				for t+step < end {
					t += step
					passed++
				}
				n += passed
				skipped += 1 + passed
				continue
			}
		} else if skip && m.cells.at(x0, y0, z0) < m.zeroBelow {
			skipped++
			continue
		}
		s := m.fetch(x, y, z, x0, y0, z0)
		if s < m.zeroBelow {
			continue // classifies to nothing, and acc was not opaque before
		}
		var r, g, b, a float32
		if m.ctf != nil {
			r, g, b, a = m.ctf.Lookup(s)
		} else {
			r, g, b, a = m.tf.Lookup(s)
		}
		if a <= 0 {
			continue
		}
		// Premultiply by the opacity-corrected alpha.
		if m.opacity != nil {
			a = m.opacity.correct(a)
		} else {
			a = opacityCorrect(a, m.stepRatio)
		}
		smp := img.RGBA{R: r * a, G: g * a, B: b * a, A: a}
		if m.opt.Shading {
			k := m.shade(x, y, z)
			smp.R *= k
			smp.G *= k
			smp.B *= k
		}
		acc.AccumulateFrontToBack(smp)
		if acc.Opaque() {
			break
		}
	}
	return acc, n, skipped
}

// mip keeps the largest sample along the ray.
func (m *march) mip(d Vec3, t0, tmax float64) (acc img.RGBA, n, skipped int) {
	e := m.view.eye
	var peak float32 = -1
	for t := t0; t < tmax; t += m.step {
		n++
		x := (e.X+d.X*t)*m.fd.X - m.origin.X - 0.5
		y := (e.Y+d.Y*t)*m.fd.Y - m.origin.Y - 0.5
		z := (e.Z+d.Z*t)*m.fd.Z - m.origin.Z - 0.5
		x0, y0, z0 := int(math.Floor(x)), int(math.Floor(y)), int(math.Floor(z))
		if m.cells != nil && m.cells.at(x0, y0, z0) <= peak {
			skipped++
			continue
		}
		if s := m.fetch(x, y, z, x0, y0, z0); s > peak {
			peak = s
		}
	}
	if peak >= 0 {
		r, g, b, _ := m.tf.Lookup(peak)
		// MIP composites by per-pixel max during the merge; encode
		// intensity in alpha so depth-order over still prefers the
		// brighter fragment in practice.
		acc = img.RGBA{R: r * peak, G: g * peak, B: b * peak, A: peak}
	}
	return acc, n, skipped
}

// iso shades the first crossing of IsoValue as an opaque surface.
func (m *march) iso(d Vec3, t0, tmax float64) (acc img.RGBA, n, skipped int) {
	e, level := m.view.eye, m.opt.IsoValue
	for t := t0; t < tmax; t += m.step {
		n++
		x := (e.X+d.X*t)*m.fd.X - m.origin.X - 0.5
		y := (e.Y+d.Y*t)*m.fd.Y - m.origin.Y - 0.5
		z := (e.Z+d.Z*t)*m.fd.Z - m.origin.Z - 0.5
		x0, y0, z0 := int(math.Floor(x)), int(math.Floor(y)), int(math.Floor(z))
		if m.cells != nil && m.cells.at(x0, y0, z0) < level {
			skipped++
			continue
		}
		if m.fetch(x, y, z, x0, y0, z0) >= level {
			k := m.shade(x, y, z)
			return img.RGBA{R: 0.9 * k, G: 0.85 * k, B: 0.8 * k, A: 1}, n, skipped
		}
	}
	return acc, n, skipped
}

// RenderFull convenience-renders a whole grid as one brick.
func RenderFull(g *volume.Grid, cam *Camera, tf TransferFunc, opt Options) *img.Image {
	b := &Brick{Grid: g, Extent: g.Bounds(), FullDims: g.Dims}
	return RenderBrick(b, cam, tf, opt).Image
}

// diffuse returns a Lambert shading factor with an ambient floor, using the
// gradient as the surface normal. Near-zero gradients (homogeneous regions)
// shade fully, which avoids speckle in flat areas.
func diffuse(grad, light Vec3) float32 {
	l := grad.Len()
	if l < 1e-6 {
		return 1
	}
	n := grad.Scale(1 / l)
	lambert := math.Abs(n.Dot(light))
	return float32(0.3 + 0.7*lambert)
}
