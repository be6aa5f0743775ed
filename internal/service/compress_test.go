package service

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"image"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"vizsched/internal/img"
	"vizsched/internal/raycast"
	"vizsched/internal/volume"
)

// quant16 maps the values a renderer should never produce but a bug might
// to the words the comparison-first function before it gave on amd64, where
// NaN's float-to-integer conversion, which the Go spec leaves open, happened
// to give 0. Every word dequantises to a value that quantises back to it,
// which is what makes an accepted stream its own decode's encoding.
func TestQuant16(t *testing.T) {
	nan := float32(math.NaN())
	for _, c := range []struct {
		v    float32
		want uint16
	}{
		{nan, 0},
		{-nan, 0},
		{float32(math.Copysign(0, -1)), 0},
		{0, 0},
		{-0.25, 0},
		{float32(math.Inf(-1)), 0},
		{float32(math.Inf(1)), math.MaxUint16},
		{math.Nextafter32(1, 2), math.MaxUint16},
		{1.5, math.MaxUint16},
		{1, math.MaxUint16},
		{math.Nextafter32(1, 0), math.MaxUint16},
		{math.SmallestNonzeroFloat32, 0},
		{1e-38, 0},
		{0.5 / math.MaxUint16, 1},
		{0.5, 32768},
	} {
		if got := quant16(c.v); got != c.want {
			t.Errorf("quant16(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	for q := 0; q <= math.MaxUint16; q++ {
		if got := quant16(dequant16(uint16(q))); got != uint16(q) {
			t.Fatalf("quant16(dequant16(%d)) = %d", q, got)
		}
	}
}

// runStream builds a run stream by hand from (zeros, literals) pairs, every
// literal pixel the quantised word px.
func runStream(px uint64, runs ...uint64) []byte {
	var b []byte
	for i := 0; i+1 < len(runs); i += 2 {
		b = binary.AppendUvarint(b, runs[i])
		b = binary.AppendUvarint(b, runs[i+1])
		for range runs[i+1] {
			b = binary.LittleEndian.AppendUint64(b, px)
		}
	}
	return b
}

// A fragment's pixel payload comes off the wire. A stream that is not the
// canonical encoding of exactly a w×h rectangle is rejected, at the first
// run that overshoots the frame however far it claims to go, and rejecting
// it allocates nothing the claim sizes.
func TestDecodePixelsRejectsBadRuns(t *testing.T) {
	const w, h, px = 16, 16, 0x0004_0003_0002_0001
	m := img.New(w, h)
	for i := range m.Pix {
		if i%5 < 2 || i%37 == 0 {
			m.Pix[i] = img.RGBA{R: float32(i) / 512, G: 0.25, B: 0.5, A: 0.75}
		}
	}
	valid := encodePixels(m, m.Bounds())
	got, err := decodePixels(w, h, CodecRuns, valid)
	if err != nil {
		t.Fatalf("a valid 16x16 stream rejected: %v", err)
	}
	img.Put(got)

	short := runStream(px, 0, 3)
	short[1] = 10 // ten literals claimed, three sent
	clearLit := runStream(px, 0, 2, w*h-2, 0)
	clear(clearLit[10:18]) // the second literal pixel
	cases := []struct {
		name, data, want string
	}{
		{"empty", "", "run length"},
		{"zero run past the frame", string(runStream(px, w*h+1, 0)), "overshoots"},
		{"zero run far past the frame", string(runStream(px, 1<<62, 0)), "overshoots"},
		{"literal run past the frame", string(runStream(px, 0, w*h+1)), "overshoots"},
		{"literal run far past the frame", string(binary.AppendUvarint([]byte{0}, 1<<40)), "overshoots"},
		{"literal run past the bytes left", string(short), "bytes left"},
		{"(0,0) pair", string(append(runStream(px, 0, 0), runStream(px, w*h, 0)...)), "empty literal run"},
		{"zero run of 0 after the first", string(runStream(px, 0, 1, 0, 1, w*h-2, 0)), "empty zero run"},
		{"no literals before the end", string(runStream(px, 10, 0, w*h-10, 0)), "empty literal run"},
		{"transparent literal", string(clearLit), "transparent literal"},
		{"overlong run length", "\x80\x82\x00\x00", "run length"},
		{"11-byte varint", strings.Repeat("\x80", 10) + "\x01\x00", "run length"},
		{"one trailing byte", string(valid) + "\x00", "after the last pixel"},
		{"trailing pair", string(valid) + "\x00\x00", "after the last pixel"},
	}
	for k := range valid {
		cases = append(cases, struct{ name, data, want string }{fmt.Sprintf("cut at byte %d", k), string(valid[:k]), ""})
	}
	for _, c := range cases {
		data := []byte(c.data)
		decodePixels(w, h, CodecRuns, data) // the image pool warms up
		var err error
		spent := totalAlloc(func() { _, err = decodePixels(w, h, CodecRuns, data) })
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: rejected for another reason: %v", c.name, err)
		}
		if spent > 64<<10 {
			t.Errorf("%s: rejecting %d bytes allocated %d", c.name, len(data), spent)
		}
	}
}

// codecSample is a rectangle of an image to encode.
type codecSample struct {
	m *img.Image
	r image.Rectangle
}

// codecSamples are the rectangles the round-trip test encodes and the
// fuzzer starts from: all transparent, all literal, alternating, a single
// pixel, and mixtures with values no renderer should produce (NaN, ±Inf,
// negatives, over 1, below half a quantum), at sizes with runs both shorter
// and longer than a one-byte length.
func codecSamples() []codecSample {
	rng := rand.New(rand.NewSource(44))
	odd := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), -0.5, 1.25, 1e-6, 0}
	channel := func() float32 {
		if rng.Intn(4) == 0 {
			return odd[rng.Intn(len(odd))]
		}
		return rng.Float32()
	}
	var out []codecSample
	for i := 0; i < 60; i++ {
		w, h := 1+rng.Intn(48), 1+rng.Intn(48)
		switch i % 12 {
		case 0:
			w, h = 1, 1
		case 1:
			w, h = 200, 3
		}
		m := img.New(w, h)
		for j := range m.Pix {
			var lit bool
			switch i % 6 {
			case 0: // transparent
			case 1:
				lit = true
			case 2:
				lit = j%2 == (i/6)%2
			case 3:
				lit = j == rng.Intn(len(m.Pix))
			case 4:
				lit = rng.Intn(3) == 0
			case 5:
				m.Pix[j] = img.RGBA{R: channel(), G: channel(), B: channel(), A: channel()}
			}
			if lit {
				m.Pix[j] = img.RGBA{R: rng.Float32(), G: rng.Float32(), B: rng.Float32(), A: 0.01 + rng.Float32()}
			}
		}
		x0, y0 := rng.Intn(w), rng.Intn(h)
		r := image.Rect(x0, y0, x0+1+rng.Intn(w-x0), y0+1+rng.Intn(h-y0))
		if i%3 == 0 {
			r = m.Bounds()
		}
		out = append(out, codecSample{m, r})
	}
	return out
}

// Decoding an encoding gives every channel its 16-bit quantisation back,
// bit for bit; encoding a decoding gives the stream back; and no rectangle
// costs more than its words plus two length bytes per two pixels and two
// more.
func TestPixelCodecRoundTrip(t *testing.T) {
	for i, s := range codecSamples() {
		p := encodePixels(s.m, s.r)
		n := s.r.Dx() * s.r.Dy()
		if bound := 8*n + 2*((n+1)/2) + 2; len(p) > bound {
			t.Errorf("sample %d: %d pixels took %d bytes, bound %d", i, n, len(p), bound)
		}
		got, err := decodePixels(s.r.Dx(), s.r.Dy(), CodecRuns, p)
		if err != nil {
			t.Fatalf("sample %d (%v): %v", i, s.r, err)
		}
		for y := 0; y < got.H; y++ {
			for x := 0; x < got.W; x++ {
				in, out := s.m.At(s.r.Min.X+x, s.r.Min.Y+y), got.At(x, y)
				for c, pair := range [][2]float32{{in.R, out.R}, {in.G, out.G}, {in.B, out.B}, {in.A, out.A}} {
					if want := dequant16(quant16(pair[0])); math.Float32bits(pair[1]) != math.Float32bits(want) {
						t.Fatalf("sample %d pixel (%d,%d) channel %d: %v decoded as %v, want %v", i, x, y, c, pair[0], pair[1], want)
					}
				}
			}
		}
		if again := encodePixels(got, got.Bounds()); !bytes.Equal(again, p) {
			t.Errorf("sample %d: the decoding re-encodes to another stream", i)
		}
		img.Put(got)
	}
}

// flateEncodeRef and flateDecodeRef are the DEFLATE codec the run codec
// replaced, kept as the reference its pixels are held to: quantise to 16
// bits (NaN, like everything at or below 0, went to 0 on amd64), DEFLATE at
// BestSpeed; inflate exactly w·h·8 bytes and dequantise.
func flateEncodeRef(m *img.Image, r image.Rectangle) []byte {
	quant := make([]byte, 0, r.Dx()*r.Dy()*8)
	for y := r.Min.Y; y < r.Max.Y; y++ {
		for _, p := range m.Pix[y*m.W+r.Min.X:][:r.Dx()] {
			for _, v := range []float32{p.R, p.G, p.B, p.A} {
				var q uint16
				if v >= 1 {
					q = math.MaxUint16
				} else if v > 0 {
					q = uint16(v*math.MaxUint16 + 0.5)
				}
				quant = binary.LittleEndian.AppendUint16(quant, q)
			}
		}
	}
	var out bytes.Buffer
	zw, _ := flate.NewWriter(&out, flate.BestSpeed)
	zw.Write(quant)
	zw.Close()
	return out.Bytes()
}

func flateDecodeRef(w, h int, data []byte) (*img.Image, error) {
	quant := make([]byte, w*h*8)
	if _, err := io.ReadFull(flate.NewReader(bytes.NewReader(data)), quant); err != nil {
		return nil, err
	}
	m := img.New(w, h)
	for i := range m.Pix {
		m.Pix[i] = img.RGBA{
			R: dequant16(binary.LittleEndian.Uint16(quant[i*8+0:])),
			G: dequant16(binary.LittleEndian.Uint16(quant[i*8+2:])),
			B: dequant16(binary.LittleEndian.Uint16(quant[i*8+4:])),
			A: dequant16(binary.LittleEndian.Uint16(quant[i*8+6:])),
		}
	}
	return m, nil
}

// The run codec carries the pixels the DEFLATE codec carried, bit for bit,
// over the bricks the live benchmark workloads render — so composites, PNGs
// and probe-frame hashes do not move — and an encode allocates only its
// payload, a decode nothing beyond img.Get.
func TestRunCodecMatchesFlatePixels(t *testing.T) {
	type dataset struct {
		tf    string
		field volume.FieldFunc
	}
	orbit := []dataset{{"supernova", volume.Supernova}, {"plume", volume.Plume}, {"combustion", volume.Combustion}}
	shapes := []struct {
		name               string
		dim, chunks, width int
		datasets           []dataset
	}{
		// live_orbit_pipe renders the first of live_mixed_batch's datasets.
		{"orbit and mixed", 48, 3, 128, orbit},
		{"fanout", 32, 8, 64, orbit[:1]},
		{"cold sweep", 128, 2, 64, append(orbit[:3:3],
			dataset{"turbulence", volume.Turbulence(1)}, dataset{"turbulence", volume.Turbulence(2)}, dataset{"turbulence", volume.Turbulence(3)})},
	}
	const views = 16
	var runBytes, flateBytes, quantBytes, fragments int
	for _, sh := range shapes {
		for _, ds := range sh.datasets {
			tf := ds.tf
			g := volume.Generate(ds.field, sh.dim, sh.dim, sh.dim)
			for _, box := range volume.BrickZ(g.Dims, sh.chunks) {
				b := raycast.MakeBrick(g, box)
				for v := 0; v < views; v++ {
					cam := raycast.NewCamera(0.6+float64(v)*2*math.Pi/views, 0.28+0.04*float64(v%3)/2, 2.4)
					f := raycast.RenderBrick(b, cam, raycast.PresetTF(tf), raycast.Options{Width: sh.width, Height: sh.width})
					if r := f.Bounds; !r.Empty() {
						p := encodePixels(f.Image, r)
						got, err := decodePixels(r.Dx(), r.Dy(), CodecRuns, p)
						if err != nil {
							t.Fatalf("%s %s view %d: %v", sh.name, tf, v, err)
						}
						ref := flateEncodeRef(f.Image, r)
						want, err := flateDecodeRef(r.Dx(), r.Dy(), ref)
						if err != nil {
							t.Fatal(err)
						}
						for i := range want.Pix {
							if got.Pix[i] != want.Pix[i] {
								t.Fatalf("%s %s view %d pixel %d: runs %v, flate %v", sh.name, tf, v, i, got.Pix[i], want.Pix[i])
							}
						}
						img.Put(got)
						runBytes += len(p)
						flateBytes += len(ref)
						quantBytes += r.Dx() * r.Dy() * 8
						fragments++
					}
					img.Put(f.Image)
				}
			}
		}
	}
	t.Logf("%d fragments: %d quantised bytes, DEFLATE %d (%.2fx), runs %d (%.2fx)", fragments, quantBytes,
		flateBytes, float64(quantBytes)/float64(flateBytes), runBytes, float64(quantBytes)/float64(runBytes))

	if raceEnabled {
		return // the race detector makes sync.Pool drop what it is given
	}
	s := codecSamples()[4] // mixed transparent and literal pixels
	p := encodePixels(s.m, s.r)
	if a := testing.AllocsPerRun(100, func() { encodePixels(s.m, s.r) }); a != 1 {
		t.Errorf("encode: %v allocs, want 1 (the payload)", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		m, err := decodePixels(s.r.Dx(), s.r.Dy(), CodecRuns, p)
		if err != nil {
			t.Fatal(err)
		}
		img.Put(m)
	}); a != 0 {
		t.Errorf("decode: %v allocs beyond a recycled image, want 0", a)
	}
}

// FuzzDecodePixels feeds arbitrary sizes, codecs and payloads to the
// fragment decoder. The contract: no panic; what decodes re-encodes to
// exactly its input (the stream is canonical); and a rejected payload's
// image goes back to the free list.
func FuzzDecodePixels(f *testing.F) {
	for _, s := range codecSamples() {
		p := encodePixels(s.m, s.r)
		f.Add(s.r.Dx(), s.r.Dy(), CodecRuns, p)
		f.Add(s.r.Dx(), s.r.Dy(), CodecRuns, p[:len(p)/2])
		f.Add(s.r.Dy(), s.r.Dx()+1, CodecRuns, p)
	}
	f.Add(16, 16, 0, make([]byte, 16*16*16))
	f.Add(-1, 16, CodecRuns, []byte{0, 1})
	f.Fuzz(func(t *testing.T, w, h, codec int, data []byte) {
		sized := w > 0 && h > 0 && w <= maxFrameEdge && h <= maxFrameEdge
		if sized && w*h > 1<<14 {
			return // a valid size this large costs the fuzzer memory, nothing more
		}
		m, err := decodePixels(w, h, codec, data)
		if err != nil {
			if sized && !raceEnabled && !putsBack(w, h, codec, data) {
				t.Fatalf("rejecting a %dx%d payload (%v) kept the image it took", w, h, err)
			}
			return
		}
		if again := encodePixels(m, m.Bounds()); !bytes.Equal(again, data) {
			t.Fatalf("a %dx%d payload decoded and re-encoded differs", w, h)
		}
		img.Put(m)
	})
}

// putsBack reports whether a rejected decode hands the image it took back to
// the free list: an image put just before the call is the next one a Get of
// that size returns. A goroutine that changes processors in between can
// see another image, so a miss is retried before it counts.
func putsBack(w, h, codec int, data []byte) bool {
	for range 3 {
		probe := img.Get(w, h)
		img.Put(probe)
		decodePixels(w, h, codec, data)
		m := img.Get(w, h)
		img.Put(m)
		if m == probe {
			return true
		}
	}
	return false
}
