// Package raycast is a software ray-casting volume renderer: the functional
// stand-in for the paper's GLSL/GPU renderer (Kruger & Westermann [6]).
//
// Each rendering node renders its data brick into a full-viewport
// premultiplied RGBA image plus a per-brick view depth; the compositing
// package then merges bricks in visibility order (sort-last, Molnar et
// al. [7]). The renderer does real work — trilinear sampling, transfer
// function lookup, gradient shading, front-to-back accumulation with early
// ray termination and empty-space skipping — so the end-to-end service
// produces genuine images (Fig. 10 analogues) rather than mock pixels.
package raycast

import (
	"image"
	"math"
)

// Vec3 is a 3-component float64 vector.
type Vec3 struct{ X, Y, Z float64 }

// Add returns a+b.
func (a Vec3) Add(b Vec3) Vec3 { return Vec3{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }

// Sub returns a−b.
func (a Vec3) Sub(b Vec3) Vec3 { return Vec3{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }

// Scale returns s·a.
func (a Vec3) Scale(s float64) Vec3 { return Vec3{a.X * s, a.Y * s, a.Z * s} }

// Dot returns a·b.
func (a Vec3) Dot(b Vec3) float64 { return a.X*b.X + a.Y*b.Y + a.Z*b.Z }

// Cross returns a×b.
func (a Vec3) Cross(b Vec3) Vec3 {
	return Vec3{
		a.Y*b.Z - a.Z*b.Y,
		a.Z*b.X - a.X*b.Z,
		a.X*b.Y - a.Y*b.X,
	}
}

// Len returns |a|.
func (a Vec3) Len() float64 { return math.Sqrt(a.Dot(a)) }

// Normalize returns a/|a|; the zero vector normalizes to itself.
func (a Vec3) Normalize() Vec3 {
	l := a.Len()
	if l == 0 {
		return a
	}
	return a.Scale(1 / l)
}

// Ray is an origin and unit direction.
type Ray struct {
	Origin, Dir Vec3
}

// Camera is a simple perspective pinhole camera. The volume is rendered in a
// normalized world where the full dataset occupies [0,1]³. A Camera is plain
// data: rendering never writes to it, so one may be shared between
// concurrent renders.
type Camera struct {
	Eye, LookAt, Up Vec3
	// FovY is the vertical field of view in radians.
	FovY float64
}

// NewCamera returns a camera with sensible defaults: orbiting the unit cube
// center from the given angle (radians around Y) and distance.
func NewCamera(angle, elevation, dist float64) *Camera {
	center := Vec3{0.5, 0.5, 0.5}
	eye := Vec3{
		0.5 + dist*math.Cos(elevation)*math.Sin(angle),
		0.5 + dist*math.Sin(elevation),
		0.5 + dist*math.Cos(elevation)*math.Cos(angle),
	}
	return &Camera{Eye: eye, LookAt: center, Up: Vec3{0, 1, 0}, FovY: 45 * math.Pi / 180}
}

// view is a camera resolved for one aspect ratio: the orthonormal basis and
// the half-extents of the image plane. It is a value built once per render
// and only read afterwards.
type view struct {
	eye, right, up, fwd Vec3
	halfH, halfW        float64
}

// view builds the orthonormal basis for the given aspect ratio (w/h).
func (c *Camera) view(aspect float64) view {
	fwd := c.LookAt.Sub(c.Eye).Normalize()
	right := fwd.Cross(c.Up).Normalize()
	halfH := math.Tan(c.FovY / 2)
	return view{
		eye: c.Eye, right: right, up: right.Cross(fwd), fwd: fwd,
		halfH: halfH, halfW: halfH * aspect,
	}
}

// ray returns the primary ray through normalized screen coordinates
// (u,v) ∈ [0,1]²; v grows downward, matching image row order.
func (w *view) ray(u, v float64) Ray {
	sx := (2*u - 1) * w.halfW
	sy := (1 - 2*v) * w.halfH
	dir := w.fwd.Add(w.right.Scale(sx)).Add(w.up.Scale(sy)).Normalize()
	return Ray{Origin: w.eye, Dir: dir}
}

// project returns a pixel rectangle of a width×height frame that holds every
// pixel whose primary ray can meet the box [lo,hi]. It is conservative, never
// tight: a box wholly in front of the eye plane projects inside the bounding
// rectangle of its eight projected corners, and that rectangle is padded a
// pixel outward, orders of magnitude more than the rounding of the
// projection; a corner on or behind the eye plane has no projection (the eye
// may be inside the box), nor has anything under a basis that is not
// orthonormal (Up along the line of sight), and the answer is then the whole
// frame. A box outside the frustum gets an empty rectangle.
func (w *view) project(lo, hi Vec3, width, height int) image.Rectangle {
	frame := image.Rect(0, 0, width, height)
	if !(w.right.Dot(w.right) > 0.5 && w.halfW > 0 && w.halfH > 0) {
		return frame
	}
	uMin, vMin := math.Inf(1), math.Inf(1)
	uMax, vMax := math.Inf(-1), math.Inf(-1)
	for corner := 0; corner < 8; corner++ {
		p := lo
		if corner&1 != 0 {
			p.X = hi.X
		}
		if corner&2 != 0 {
			p.Y = hi.Y
		}
		if corner&4 != 0 {
			p.Z = hi.Z
		}
		d := p.Sub(w.eye)
		z := d.Dot(w.fwd)
		if !(z > 1e-9) {
			return frame
		}
		// The inverse of ray: sx = (2u−1)·halfW, sy = (1−2v)·halfH.
		u := (d.Dot(w.right)/z/w.halfW + 1) / 2
		v := (1 - d.Dot(w.up)/z/w.halfH) / 2
		uMin, uMax = math.Min(uMin, u), math.Max(uMax, u)
		vMin, vMax = math.Min(vMin, v), math.Max(vMax, v)
	}
	if !(uMin <= uMax && vMin <= vMax) { // a NaN got in: an eye at infinity
		return frame
	}
	// Pixel x is cast through u = (x+0.5)/width, so it can hit for
	// uMin·width−0.5 <= x <= uMax·width−0.5. Clamp before converting: the
	// products may be far outside what an int holds.
	pixels := func(min, max float64, n int) (int, int) {
		a := math.Floor(min*float64(n)-0.5) - 1
		b := math.Ceil(max*float64(n)-0.5) + 2
		return int(math.Max(a, 0)), int(math.Min(b, float64(n)))
	}
	x0, x1 := pixels(uMin, uMax, width)
	y0, y1 := pixels(vMin, vMax, height)
	if x0 >= x1 || y0 >= y1 {
		return image.Rectangle{}
	}
	return image.Rect(x0, y0, x1, y1)
}

// RayThrough returns the primary ray through normalized screen coordinates
// (u,v) ∈ [0,1]² for an image with the given aspect ratio (w/h). v grows
// downward, matching image row order. It resolves the camera's basis on
// every call; RenderBrick resolves it once per render.
func (c *Camera) RayThrough(u, v, aspect float64) Ray {
	w := c.view(aspect)
	return w.ray(u, v)
}

// intersectAABB returns the parametric entry/exit of the ray with the box
// [lo,hi], and whether it hits at all. tmin is clamped to 0 (rays starting
// inside the box enter immediately).
func intersectAABB(r Ray, lo, hi Vec3) (tmin, tmax float64, hit bool) {
	tmin, tmax = 0, math.Inf(1)
	for i := 0; i < 3; i++ {
		var o, d, l, h float64
		switch i {
		case 0:
			o, d, l, h = r.Origin.X, r.Dir.X, lo.X, hi.X
		case 1:
			o, d, l, h = r.Origin.Y, r.Dir.Y, lo.Y, hi.Y
		default:
			o, d, l, h = r.Origin.Z, r.Dir.Z, lo.Z, hi.Z
		}
		if math.Abs(d) < 1e-12 {
			if o < l || o > h {
				return 0, 0, false
			}
			continue
		}
		t0 := (l - o) / d
		t1 := (h - o) / d
		if t0 > t1 {
			t0, t1 = t1, t0
		}
		if t0 > tmin {
			tmin = t0
		}
		if t1 < tmax {
			tmax = t1
		}
		if tmin > tmax {
			return 0, 0, false
		}
	}
	return tmin, tmax, true
}
