// Package img provides the premultiplied-alpha float image used throughout
// the rendering pipeline, the front-to-back "over" operator that both the
// ray caster and the sort-last compositors rely on, and encoders to standard
// image formats.
//
// All colors are premultiplied by alpha. Premultiplication is what makes
// "over" associative — the property the binary-swap and 2-3-swap compositors
// (and their tests) depend on.
package img

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"
	"math/bits"
	"os"
	"sync"
)

// RGBA is one premultiplied color sample.
type RGBA struct {
	R, G, B, A float32
}

// Over composites src over dst (both premultiplied) and returns the result.
// This is the standard Porter-Duff over operator.
func (dst RGBA) Under(src RGBA) RGBA { return src.Over(dst) }

// Over returns c composited over bg.
func (c RGBA) Over(bg RGBA) RGBA {
	t := 1 - c.A
	return RGBA{
		R: c.R + bg.R*t,
		G: c.G + bg.G*t,
		B: c.B + bg.B*t,
		A: c.A + bg.A*t,
	}
}

// AccumulateFrontToBack adds a new sample behind the accumulated color, the
// form used inside a ray marcher: acc += (1-acc.A)*sample.
func (c *RGBA) AccumulateFrontToBack(sample RGBA) {
	t := 1 - c.A
	c.R += sample.R * t
	c.G += sample.G * t
	c.B += sample.B * t
	c.A += sample.A * t
}

// Opaque reports whether the sample is (nearly) fully opaque, the early-ray-
// termination test.
func (c RGBA) Opaque() bool { return c.A >= 0.995 }

// Image is a W×H premultiplied float RGBA image.
type Image struct {
	W, H int
	Pix  []RGBA
}

// New allocates a transparent-black image.
func New(w, h int) *Image {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("img: invalid size %dx%d", w, h))
	}
	return &Image{W: w, H: h, Pix: make([]RGBA, w*h)}
}

// The free list. A frame makes one image per fragment on the worker, one
// per fragment again on the head and one composite, all the same few sizes
// frame after frame; Get and Put let the frame path hand them round instead
// of allocating 16 bytes a pixel each time. Images are binned by the bit
// length of their pixel count, so a Get looks only at images within a
// factor of two of what it needs, and each bin is a sync.Pool, so an idle
// process gives the memory back to the collector.
//
// Ownership: an image from Get (or from a function documented to return
// one) belongs to whoever holds it. Put ends that ownership — the caller
// must hold the only reference to the image and to its Pix, and must not
// touch either afterwards. Never calling Put is always safe; the image is
// then ordinary garbage.
var free [bits.UintSize + 1]sync.Pool

// Get returns a transparent-black w×h image, recycled if the free list has
// one large enough and freshly allocated otherwise.
func Get(w, h int) *Image {
	if n := w * h; w > 0 && h > 0 {
		if m, _ := free[bits.Len(uint(n))].Get().(*Image); m != nil && cap(m.Pix) >= n {
			m.W, m.H, m.Pix = w, h, m.Pix[:n]
			clear(m.Pix)
			return m
		}
	}
	return New(w, h) // also where a bad size panics
}

// Put hands m to the free list. See the ownership rule above; nil is a
// no-op.
func Put(m *Image) {
	if m == nil || cap(m.Pix) == 0 {
		return
	}
	m.Pix = m.Pix[:cap(m.Pix)]
	free[bits.Len(uint(len(m.Pix)))].Put(m)
}

// Bounds returns the image's rectangle, (0,0)–(W,H).
func (m *Image) Bounds() image.Rectangle { return image.Rect(0, 0, m.W, m.H) }

// At returns the pixel at (x,y); coordinates must be in range.
func (m *Image) At(x, y int) RGBA { return m.Pix[y*m.W+x] }

// Set stores p at (x,y).
func (m *Image) Set(x, y int, p RGBA) { m.Pix[y*m.W+x] = p }

// Clone returns a deep copy.
func (m *Image) Clone() *Image {
	c := New(m.W, m.H)
	copy(c.Pix, m.Pix)
	return c
}

// CompositeOver composites front over m in place, pixelwise. The images must
// be the same size.
func (m *Image) CompositeOver(front *Image) {
	if front.W != m.W || front.H != m.H {
		panic(fmt.Sprintf("img: size mismatch %dx%d over %dx%d", front.W, front.H, m.W, m.H))
	}
	for i := range m.Pix {
		m.Pix[i] = front.Pix[i].Over(m.Pix[i])
	}
}

// MaxDiff returns the largest absolute channel difference between two
// equal-sized images, used by tests to compare compositing strategies.
func MaxDiff(a, b *Image) float64 {
	if a.W != b.W || a.H != b.H {
		panic("img: MaxDiff size mismatch")
	}
	var worst float64
	for i := range a.Pix {
		p, q := a.Pix[i], b.Pix[i]
		for _, d := range []float32{p.R - q.R, p.G - q.G, p.B - q.B, p.A - q.A} {
			if f := math.Abs(float64(d)); f > worst {
				worst = f
			}
		}
	}
	return worst
}

// ToNRGBA converts to a standard library image, un-premultiplying and
// compositing onto an opaque black background.
func (m *Image) ToNRGBA() *image.NRGBA {
	out := image.NewNRGBA(image.Rect(0, 0, m.W, m.H))
	m.fillNRGBA(out)
	return out
}

// fillNRGBA writes every pixel of out, which must be m's size.
func (m *Image) fillNRGBA(out *image.NRGBA) {
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			p := m.At(x, y).Over(RGBA{0, 0, 0, 1})
			out.SetNRGBA(x, y, color.NRGBA{
				R: to8(p.R),
				G: to8(p.G),
				B: to8(p.B),
				A: 255,
			})
		}
	}
}

// to8 maps a channel to 8 bits: NaN and everything at or below 0 to 0,
// everything at or above 1 to 255. NaN is caught by rule: Go leaves the
// conversion of a NaN to uint8 to the implementation.
func to8(v float32) uint8 {
	if !(v > 0) {
		return 0
	}
	if v >= 1 {
		return 255
	}
	return uint8(v*255 + 0.5)
}

// pngBuffers lends png.Encoder its per-image state (the zlib compressor
// and the filter rows, ≈0.85 MB) instead of letting it build a new set for
// every frame.
type pngBuffers struct{ pool sync.Pool }

func (p *pngBuffers) Get() *png.EncoderBuffer {
	b, _ := p.pool.Get().(*png.EncoderBuffer)
	return b
}

func (p *pngBuffers) Put(b *png.EncoderBuffer) { p.pool.Put(b) }

// pngEncoder is png.Encode's encoder (default compression) with pooled
// buffers: the bytes written are the same.
var pngEncoder = png.Encoder{BufferPool: new(pngBuffers)}

// nrgbaScratch recycles the 8-bit staging image EncodePNG converts into.
var nrgbaScratch sync.Pool

// EncodePNG writes the image as PNG.
func (m *Image) EncodePNG(w io.Writer) error {
	out, _ := nrgbaScratch.Get().(*image.NRGBA)
	if n := 4 * m.W * m.H; out == nil || cap(out.Pix) < n {
		out = image.NewNRGBA(image.Rect(0, 0, m.W, m.H))
	} else {
		out.Pix, out.Stride, out.Rect = out.Pix[:n], 4*m.W, image.Rect(0, 0, m.W, m.H)
	}
	m.fillNRGBA(out)
	err := pngEncoder.Encode(w, out)
	nrgbaScratch.Put(out)
	return err
}

// SavePNG writes the image to the named PNG file.
func (m *Image) SavePNG(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.EncodePNG(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Luminance returns the mean luminance of the image composited on black,
// a cheap scalar summary tests use to assert "something visible rendered".
func (m *Image) Luminance() float64 {
	var sum float64
	for _, p := range m.Pix {
		c := p.Over(RGBA{0, 0, 0, 1})
		sum += 0.2126*float64(c.R) + 0.7152*float64(c.G) + 0.0722*float64(c.B)
	}
	return sum / float64(len(m.Pix))
}

// PSNR returns the peak signal-to-noise ratio between two equal-sized
// images in decibels, computed over RGB composited on black — the standard
// fidelity figure for comparing compositing strategies and codecs.
// Identical images return +Inf.
func PSNR(a, b *Image) float64 {
	if a.W != b.W || a.H != b.H {
		panic("img: PSNR size mismatch")
	}
	var mse float64
	for i := range a.Pix {
		p := a.Pix[i].Over(RGBA{0, 0, 0, 1})
		q := b.Pix[i].Over(RGBA{0, 0, 0, 1})
		for _, d := range []float32{p.R - q.R, p.G - q.G, p.B - q.B} {
			mse += float64(d) * float64(d)
		}
	}
	mse /= float64(len(a.Pix) * 3)
	if mse == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(1/mse)
}

// Diff returns a heatmap image of per-pixel differences (red intensity ∝
// max channel error), for debugging compositing or codec regressions.
func Diff(a, b *Image) *Image {
	if a.W != b.W || a.H != b.H {
		panic("img: Diff size mismatch")
	}
	out := New(a.W, a.H)
	for i := range a.Pix {
		p, q := a.Pix[i], b.Pix[i]
		var worst float32
		for _, d := range []float32{p.R - q.R, p.G - q.G, p.B - q.B, p.A - q.A} {
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
		out.Pix[i] = RGBA{R: worst, A: worst}
	}
	return out
}
