package raycast

import (
	"math"
	"runtime"
	"sync"

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
type Brick struct {
	Grid *volume.Grid
	// Extent is the brick's logical voxel box in full-dataset coordinates.
	Extent volume.Box
	// GridOrigin is where Grid's first voxel sits in full-dataset
	// coordinates. Defaults to Extent.Min when constructed literally.
	GridOrigin [3]int
	// FullDims are the full dataset's voxel dimensions.
	FullDims [3]int
}

// MakeBrick carves the box out of a full grid with a one-voxel ghost margin
// (clipped to the dataset bounds) so that seam interpolation matches a
// monolithic render.
func MakeBrick(full *volume.Grid, box volume.Box) *Brick {
	ghost := volume.Box{
		Min: [3]int{box.Min[0] - 1, box.Min[1] - 1, box.Min[2] - 1},
		Max: [3]int{box.Max[0] + 1, box.Max[1] + 1, box.Max[2] + 1},
	}.Intersect(full.Bounds())
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

// sample returns the trilinear sample at normalized world position p.
func (b *Brick) sample(p Vec3) float32 {
	fd := b.FullDims
	// World → full-dataset voxel coordinates → grid-local coordinates.
	x := p.X*float64(fd[0]) - float64(b.GridOrigin[0]) - 0.5
	y := p.Y*float64(fd[1]) - float64(b.GridOrigin[1]) - 0.5
	z := p.Z*float64(fd[2]) - float64(b.GridOrigin[2]) - 0.5
	return b.Grid.Sample(x, y, z)
}

// gradient returns the world-space gradient at p.
func (b *Brick) gradient(p Vec3) Vec3 {
	fd := b.FullDims
	x := p.X*float64(fd[0]) - float64(b.GridOrigin[0]) - 0.5
	y := p.Y*float64(fd[1]) - float64(b.GridOrigin[1]) - 0.5
	z := p.Z*float64(fd[2]) - float64(b.GridOrigin[2]) - 0.5
	g := b.Grid.Gradient(x, y, z)
	return Vec3{float64(g[0]), float64(g[1]), float64(g[2])}
}

// Fragment is the result of rendering one brick: a full-viewport image and
// the view depth used to order fragments during compositing. Depth is the
// ray parameter at the brick's world-space center as seen from the camera.
type Fragment struct {
	Image *img.Image
	Depth float64
}

// RenderBrick ray-casts one brick against the camera and returns its
// fragment. Pixels whose rays miss the brick stay transparent, which keeps
// the sort-last composite correct for non-overlapping bricks. The fragment's
// image comes from img.Get; a caller that is done with it may img.Put it.
func RenderBrick(b *Brick, cam *Camera, tf TransferFunc, opt Options) *Fragment {
	opt.fill()
	out := img.Get(opt.Width, opt.Height)
	lo, hi := b.WorldBounds()

	step := opt.Step
	if step <= 0 {
		maxDim := float64(max(b.FullDims[0], max(b.FullDims[1], b.FullDims[2])))
		step = 0.5 / maxDim
	}
	const refStep = 1.0 / 256 // opacity-correction reference step
	stepRatio := step / refStep

	aspect := float64(opt.Width) / float64(opt.Height)
	// Rays are cast from a private copy of the camera whose basis is built
	// here, once: the bands below only read it, and a *Camera shared between
	// concurrent renders is never written to.
	view := *cam
	view.finish(aspect)
	cam = &view
	renderRows := func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			v := (float64(y) + 0.5) / float64(opt.Height)
			for x := 0; x < opt.Width; x++ {
				u := (float64(x) + 0.5) / float64(opt.Width)
				ray := cam.RayThrough(u, v, aspect)
				tmin, tmax, ok := intersectAABB(ray, lo, hi)
				if !ok {
					continue
				}
				var acc img.RGBA
				// Phase-align sampling to global multiples of step so that
				// bricks along the same ray sample the exact same positions
				// a monolithic render would; the half-open [tmin,tmax)
				// interval prevents double-sampling shared slab boundaries.
				t0 := math.Ceil(tmin/step) * step
				switch opt.Mode {
				case ModeMIP:
					var peak float32 = -1
					for t := t0; t < tmax; t += step {
						if s := b.sample(ray.Origin.Add(ray.Dir.Scale(t))); s > peak {
							peak = s
						}
					}
					if peak >= 0 {
						r, g, bl, _ := tf.Lookup(peak)
						// MIP composites by per-pixel max during the merge;
						// encode intensity in alpha so depth-order over still
						// prefers the brighter fragment in practice.
						acc = img.RGBA{R: r * peak, G: g * peak, B: bl * peak, A: peak}
					}
				case ModeIso:
					for t := t0; t < tmax; t += step {
						p := ray.Origin.Add(ray.Dir.Scale(t))
						if b.sample(p) >= opt.IsoValue {
							shade := diffuse(b.gradient(p), opt.Light)
							acc = img.RGBA{R: 0.9 * shade, G: 0.85 * shade, B: 0.8 * shade, A: 1}
							break
						}
					}
				default:
					for t := t0; t < tmax; t += step {
						p := ray.Origin.Add(ray.Dir.Scale(t))
						s := b.sample(p)
						smp := classify(tf, s, stepRatio)
						if smp.A > 0 && opt.Shading {
							shade := diffuse(b.gradient(p), opt.Light)
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
	}

	if opt.Parallel {
		workers := runtime.GOMAXPROCS(0)
		if workers > opt.Height {
			workers = opt.Height
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			y0 := opt.Height * w / workers
			y1 := opt.Height * (w + 1) / workers
			wg.Add(1)
			go func() {
				defer wg.Done()
				renderRows(y0, y1)
			}()
		}
		wg.Wait()
	} else {
		renderRows(0, opt.Height)
	}

	center := lo.Add(hi).Scale(0.5)
	depth := center.Sub(cam.Eye).Len()
	return &Fragment{Image: out, Depth: depth}
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

// powFast is math.Pow behind a name the transfer code shares; kept separate
// so a cheaper approximation can be dropped in if profiles ever demand it.
func powFast(base, exp float64) float64 { return math.Pow(base, exp) }
