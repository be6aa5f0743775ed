package img

import (
	"bytes"
	"image/png"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
)

func almost(a, b float32) bool { return math.Abs(float64(a-b)) < 1e-5 }

func TestOverIdentities(t *testing.T) {
	c := RGBA{0.2, 0.3, 0.4, 0.5}
	clear := RGBA{}
	opaque := RGBA{0.9, 0.1, 0.2, 1}
	// Transparent over X = X.
	got := clear.Over(c)
	if !almost(got.R, c.R) || !almost(got.A, c.A) {
		t.Errorf("clear over c = %+v", got)
	}
	// Opaque over X = opaque.
	got = opaque.Over(c)
	if got != opaque {
		t.Errorf("opaque over c = %+v", got)
	}
}

func randColor(rng *rand.Rand) RGBA {
	a := rng.Float32()
	// Premultiplied: channels never exceed alpha.
	return RGBA{rng.Float32() * a, rng.Float32() * a, rng.Float32() * a, a}
}

// Property: over is associative for premultiplied colors.
func TestQuickOverAssociative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := randColor(rng), randColor(rng), randColor(rng)
		ab := a.Over(b)
		bc := b.Over(c)
		l := ab.Over(c)
		r := a.Over(bc)
		return almost(l.R, r.R) && almost(l.G, r.G) && almost(l.B, r.B) && almost(l.A, r.A)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: front-to-back accumulation equals a chain of Over operations.
func TestQuickAccumulateMatchesOver(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		samples := make([]RGBA, int(n%8)+1)
		for i := range samples {
			samples[i] = randColor(rng)
		}
		var acc RGBA
		for _, s := range samples {
			acc.AccumulateFrontToBack(s)
		}
		// Back-to-front: composite from the last sample backwards.
		over := samples[len(samples)-1]
		for i := len(samples) - 2; i >= 0; i-- {
			over = samples[i].Over(over)
		}
		return almost(acc.R, over.R) && almost(acc.G, over.G) && almost(acc.B, over.B) && almost(acc.A, over.A)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestOpaque(t *testing.T) {
	if (RGBA{A: 0.9}).Opaque() {
		t.Error("0.9 alpha reported opaque")
	}
	if !(RGBA{A: 0.999}).Opaque() {
		t.Error("0.999 alpha not opaque")
	}
}

func TestImageSetAtAndClone(t *testing.T) {
	m := New(4, 3)
	p := RGBA{0.1, 0.2, 0.3, 0.4}
	m.Set(2, 1, p)
	if m.At(2, 1) != p {
		t.Error("Set/At roundtrip failed")
	}
	c := m.Clone()
	c.Set(2, 1, RGBA{})
	if m.At(2, 1) != p {
		t.Error("Clone aliases storage")
	}
}

func TestNewPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(0, 5)
}

func TestCompositeOverWholeImage(t *testing.T) {
	back := New(2, 2)
	for i := range back.Pix {
		back.Pix[i] = RGBA{0, 0.5, 0, 0.5}
	}
	front := New(2, 2)
	front.Set(0, 0, RGBA{1, 0, 0, 1})
	back.CompositeOver(front)
	if got := back.At(0, 0); got != (RGBA{1, 0, 0, 1}) {
		t.Errorf("opaque front pixel = %+v", got)
	}
	if got := back.At(1, 1); !almost(got.G, 0.5) {
		t.Errorf("transparent front pixel = %+v", got)
	}
}

func TestCompositeOverSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(2, 2).CompositeOver(New(3, 3))
}

func TestMaxDiff(t *testing.T) {
	a, b := New(2, 2), New(2, 2)
	if MaxDiff(a, b) != 0 {
		t.Error("identical images differ")
	}
	b.Set(1, 1, RGBA{0, 0, 0.25, 0})
	if d := MaxDiff(a, b); math.Abs(d-0.25) > 1e-9 {
		t.Errorf("MaxDiff = %v, want 0.25", d)
	}
}

func TestPNGEncode(t *testing.T) {
	m := New(8, 8)
	m.Set(3, 3, RGBA{1, 0, 0, 1})
	var buf bytes.Buffer
	if err := m.EncodePNG(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Bounds().Dx() != 8 || decoded.Bounds().Dy() != 8 {
		t.Errorf("bounds = %v", decoded.Bounds())
	}
	r, _, _, _ := decoded.At(3, 3).RGBA()
	if r < 0xf000 {
		t.Errorf("red pixel = %#x", r)
	}
}

func TestSavePNG(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.png")
	if err := New(4, 4).SavePNG(path); err != nil {
		t.Fatal(err)
	}
}

func TestLuminance(t *testing.T) {
	black := New(4, 4)
	if black.Luminance() != 0 {
		t.Error("black image has nonzero luminance")
	}
	white := New(4, 4)
	for i := range white.Pix {
		white.Pix[i] = RGBA{1, 1, 1, 1}
	}
	if l := white.Luminance(); math.Abs(l-1) > 1e-4 {
		t.Errorf("white luminance = %v", l)
	}
}

func TestPSNRAndDiff(t *testing.T) {
	a := New(8, 8)
	for i := range a.Pix {
		a.Pix[i] = RGBA{R: 0.5, G: 0.25, B: 0.75, A: 1}
	}
	if p := PSNR(a, a.Clone()); !math.IsInf(p, 1) {
		t.Errorf("identical PSNR = %v, want +Inf", p)
	}
	b := a.Clone()
	b.Set(0, 0, RGBA{R: 0.6, G: 0.25, B: 0.75, A: 1})
	p := PSNR(a, b)
	if p < 30 || math.IsInf(p, 1) {
		t.Errorf("one-pixel PSNR = %v, want high but finite", p)
	}
	// Larger error → lower PSNR.
	c := a.Clone()
	for i := range c.Pix {
		c.Pix[i].R += 0.2
	}
	if PSNR(a, c) >= p {
		t.Error("PSNR not monotone in error")
	}
	d := Diff(a, b)
	if d.At(0, 0).R == 0 {
		t.Error("Diff missed the changed pixel")
	}
	if d.At(3, 3).R != 0 {
		t.Error("Diff flagged an identical pixel")
	}
}

func TestPSNRSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	PSNR(New(2, 2), New(3, 3))
}

func randImage(rng *rand.Rand, w, h int) *Image {
	m := New(w, h)
	for i := range m.Pix {
		m.Pix[i] = randColor(rng)
	}
	return m
}

// EncodePNG reuses its encoder state and its 8-bit staging image from call
// to call; the bytes must be those of a plain png.Encode whatever sizes the
// previous calls left behind, including from several goroutines at once.
func TestEncodePNGMatchesPlainEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sizes := [][2]int{{16, 16}, {64, 48}, {8, 8}, {64, 48}, {33, 7}, {16, 16}}
	images := make([]*Image, len(sizes))
	want := make([][]byte, len(sizes))
	for i, s := range sizes {
		images[i] = randImage(rng, s[0], s[1])
		var buf bytes.Buffer
		if err := png.Encode(&buf, images[i].ToNRGBA()); err != nil {
			t.Fatal(err)
		}
		want[i] = buf.Bytes()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for round := 0; round < 5; round++ {
				for i, m := range images {
					buf.Reset()
					if err := m.EncodePNG(&buf); err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(buf.Bytes(), want[i]) {
						t.Errorf("round %d image %d (%dx%d): pooled encode differs from png.Encode", round, i, m.W, m.H)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestGetPutRecycles(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Whatever Put handed back, Get returns the requested size, all
	// transparent, and never two live images over the same pixels.
	for round := 0; round < 20; round++ {
		a, b := Get(32, 24), Get(32, 24)
		if &a.Pix[0] == &b.Pix[0] {
			t.Fatal("two live images share pixels")
		}
		for _, m := range []*Image{a, b} {
			if m.W != 32 || m.H != 24 || len(m.Pix) != 32*24 {
				t.Fatalf("Get(32,24) returned %dx%d with %d pixels", m.W, m.H, len(m.Pix))
			}
			for i, p := range m.Pix {
				if p != (RGBA{}) {
					t.Fatalf("round %d: recycled pixel %d = %+v, want transparent", round, i, p)
				}
				m.Pix[i] = randColor(rng)
			}
		}
		Put(a)
		Put(b)
		// A smaller request in the same size class may reuse the larger
		// backing array; a larger one must not be short-changed.
		s := Get(30, 20)
		l := Get(40, 25)
		if len(s.Pix) != 600 || len(l.Pix) != 1000 {
			t.Fatalf("lens %d, %d", len(s.Pix), len(l.Pix))
		}
		for _, m := range []*Image{s, l} {
			for i, p := range m.Pix {
				if p != (RGBA{}) {
					t.Fatalf("round %d: %dx%d pixel %d = %+v, want transparent", round, m.W, m.H, i, p)
				}
			}
		}
		Put(s)
		Put(l)
	}
	Put(nil)
	Put(&Image{})
	defer func() {
		if recover() == nil {
			t.Error("Get(0,1) did not panic")
		}
	}()
	Get(0, 1)
}
