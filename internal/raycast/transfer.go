package raycast

import "math"

// TransferFunc maps a normalized scalar value in [0,1] to a *straight*
// (non-premultiplied) color and opacity; the renderer premultiplies after
// opacity correction.
//
// A voxel file can hold anything, so Lookup must accept any float32. The
// implementations here treat a NaN sample as "no data", the bottom of the
// range: Piecewise and the presets return their first control point.
type TransferFunc interface {
	Lookup(v float32) (r, g, b, a float32)
}

// ControlPoint anchors a piecewise-linear transfer function.
type ControlPoint struct {
	V          float32 // scalar value in [0,1]
	R, G, B, A float32
}

// Piecewise is a piecewise-linear transfer function over sorted control
// points, the classic editor-style TF scientists use.
type Piecewise struct {
	Points []ControlPoint
}

// Lookup implements TransferFunc by linear interpolation between the
// bracketing control points; values outside the range clamp to the ends,
// and NaN counts as below the range.
func (p Piecewise) Lookup(v float32) (r, g, b, a float32) {
	pts := p.Points
	if len(pts) == 0 {
		return 0, 0, 0, 0
	}
	if !(v > pts[0].V) {
		c := pts[0]
		return c.R, c.G, c.B, c.A
	}
	last := pts[len(pts)-1]
	if v >= last.V {
		return last.R, last.G, last.B, last.A
	}
	for i := 1; i < len(pts); i++ {
		if v <= pts[i].V {
			lo, hi := pts[i-1], pts[i]
			span := hi.V - lo.V
			t := float32(0)
			if span > 0 {
				t = (v - lo.V) / span
			}
			return lo.R + (hi.R-lo.R)*t,
				lo.G + (hi.G-lo.G)*t,
				lo.B + (hi.B-lo.B)*t,
				lo.A + (hi.A-lo.A)*t
		}
	}
	return last.R, last.G, last.B, last.A
}

// compiledTF is a Piecewise prepared for the march loop: one segment per
// pair of neighbouring control points with the hi−lo differences taken
// once, and the range of values that provably classify to nothing. Its
// Lookup returns, for every float32, exactly what the Piecewise it was
// compiled from returns: the differences are the same float32 subtractions,
// only done earlier. RenderBrick calls it concretely.
type compiledTF struct {
	n           int // control points; 0 is the empty, always transparent TF
	first, last ControlPoint
	segs        []tfSegment
	// zeroBelow bounds the leading transparent range: every non-NaN
	// v < zeroBelow looks up an alpha <= 0. −Inf when nothing is provable,
	// +Inf when the whole function is transparent.
	zeroBelow float32
}

// tfSegment is the interval (pts[i-1].V, pts[i].V] of a compiled Piecewise.
type tfSegment struct {
	loV, hiV, span float32
	r, g, b, a     float32 // the lo end
	dr, dg, db, da float32 // hi − lo
}

func (p Piecewise) compile() *compiledTF {
	pts := p.Points
	c := &compiledTF{n: len(pts), zeroBelow: float32(math.Inf(1))}
	if c.n == 0 {
		return c
	}
	c.first, c.last = pts[0], pts[c.n-1]
	c.segs = make([]tfSegment, c.n-1)
	for i := range c.segs {
		lo, hi := pts[i], pts[i+1]
		c.segs[i] = tfSegment{
			loV: lo.V, hiV: hi.V, span: hi.V - lo.V,
			r: lo.R, g: lo.G, b: lo.B, a: lo.A,
			dr: hi.R - lo.R, dg: hi.G - lo.G, db: hi.B - lo.B, da: hi.A - lo.A,
		}
	}
	// The transparent range. With every field finite and the points sorted,
	// a value below the last of the leading points with A <= 0 interpolates
	// between two of them with a weight in [0,1], and rounding cannot lift
	// that above zero (fl(hi−lo) <= −lo when hi <= 0). An unsorted or
	// non-finite table gets no such range and is never skipped over.
	zeros := 0
	for i, q := range pts {
		if !finite32(q.V, q.R, q.G, q.B, q.A) || (i > 0 && q.V < pts[i-1].V) {
			c.zeroBelow = float32(math.Inf(-1))
			return c
		}
		if zeros == i && q.A <= 0 {
			zeros++
		}
	}
	switch zeros {
	case c.n: // transparent everywhere
	case 0:
		c.zeroBelow = float32(math.Inf(-1))
	default:
		c.zeroBelow = pts[zeros-1].V
	}
	return c
}

func finite32(vs ...float32) bool {
	for _, v := range vs {
		if !(v >= -math.MaxFloat32 && v <= math.MaxFloat32) {
			return false
		}
	}
	return true
}

// Lookup implements TransferFunc; see compiledTF.
func (c *compiledTF) Lookup(v float32) (r, g, b, a float32) {
	if c.n == 0 {
		return 0, 0, 0, 0
	}
	if !(v > c.first.V) {
		return c.first.R, c.first.G, c.first.B, c.first.A
	}
	if v >= c.last.V {
		return c.last.R, c.last.G, c.last.B, c.last.A
	}
	for i := range c.segs {
		if s := &c.segs[i]; v <= s.hiV {
			t := float32(0)
			if s.span > 0 {
				t = (v - s.loV) / s.span
			}
			return s.r + s.dr*t, s.g + s.dg*t, s.b + s.db*t, s.a + s.da*t
		}
	}
	return c.last.R, c.last.G, c.last.B, c.last.A
}

// Preset transfer functions for the Fig. 10 analogue datasets. Opacities are
// kept low in the "air" range so internal structure shows through, as in the
// paper's images.
var presets = map[string]Piecewise{
	"plume": {Points: []ControlPoint{
		{V: 0.00, A: 0},
		{V: 0.15, A: 0},
		{V: 0.3, R: 0.1, G: 0.25, B: 0.8, A: 0.03},
		{V: 0.55, R: 0.2, G: 0.75, B: 0.9, A: 0.12},
		{V: 0.8, R: 0.95, G: 0.9, B: 0.5, A: 0.35},
		{V: 1.0, R: 1, G: 1, B: 1, A: 0.6},
	}},
	"combustion": {Points: []ControlPoint{
		{V: 0.00, A: 0},
		{V: 0.2, A: 0},
		{V: 0.4, R: 0.4, G: 0.05, B: 0.02, A: 0.05},
		{V: 0.65, R: 0.95, G: 0.45, B: 0.05, A: 0.25},
		{V: 0.85, R: 1, G: 0.85, B: 0.3, A: 0.5},
		{V: 1.0, R: 1, G: 1, B: 0.9, A: 0.7},
	}},
	"supernova": {Points: []ControlPoint{
		{V: 0.00, A: 0},
		{V: 0.18, A: 0},
		{V: 0.35, R: 0.25, G: 0.05, B: 0.45, A: 0.04},
		{V: 0.6, R: 0.85, G: 0.25, B: 0.35, A: 0.18},
		{V: 0.82, R: 1, G: 0.7, B: 0.25, A: 0.45},
		{V: 1.0, R: 1, G: 1, B: 0.85, A: 0.75},
	}},
}

// DefaultTF is a generic grayscale-to-fire ramp used when no preset exists.
var DefaultTF = Piecewise{Points: []ControlPoint{
	{V: 0.0, A: 0},
	{V: 0.25, R: 0.2, G: 0.1, B: 0.4, A: 0.02},
	{V: 0.55, R: 0.8, G: 0.35, B: 0.1, A: 0.15},
	{V: 0.8, R: 1, G: 0.8, B: 0.3, A: 0.4},
	{V: 1.0, R: 1, G: 1, B: 1, A: 0.65},
}}

// The presets and DefaultTF compiled once, at package init: what PresetTF
// hands out and what RenderBrick recognises.
var (
	compiledPresets = func() map[string]*compiledTF {
		m := make(map[string]*compiledTF, len(presets))
		for name, p := range presets {
			m[name] = p.compile()
		}
		return m
	}()
	compiledDefault = DefaultTF.compile()
)

// PresetTF returns the transfer function for a named dataset, falling back
// to DefaultTF (as it stood at package init). The result is the prepared
// form of the preset: it looks up the same values and renders faster than
// an arbitrary TransferFunc.
func PresetTF(name string) TransferFunc {
	if c, ok := compiledPresets[name]; ok {
		return c
	}
	return compiledDefault
}

// opacityCorrect returns the opacity of a sample of straight alpha a > 0 for
// the given step length relative to the reference step. Opacity correction
// keeps images stable when the step size changes: a' = 1-(1-a)^(step/ref).
func opacityCorrect(a float32, stepRatio float64) float32 {
	return float32(1 - pow1m(float64(a), stepRatio))
}

// pow1m computes (1-a)^e with guards for the endpoints.
func pow1m(a, e float64) float64 {
	base := 1 - a
	if base <= 0 {
		return 0
	}
	if base >= 1 {
		return 1
	}
	return math.Pow(base, e)
}
