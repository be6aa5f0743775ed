package service

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"image"
	"io"
	"math"
	"sync"

	"vizsched/internal/img"
)

// Fragment pixel codecs. Volume-rendered fragments are mostly transparent
// (rays that miss the brick), so even byte-oriented DEFLATE shrinks them
// several-fold — the compression leg of Ma & Camp's latency-hiding
// pipeline [14].
const (
	// CodecRaw ships float32 RGBA samples as-is.
	CodecRaw = 0
	// CodecFlate quantizes to 16-bit channels and DEFLATEs.
	CodecFlate = 1
)

// maxFrameEdge bounds a frame's width and height, for requests at admission
// and for fragment sizes read off the wire.
const maxFrameEdge = 4096

// flateState is everything the flate codec needs besides the pixels: a
// compressor (≈1.1 MB to build), an inflater, the 16-bit quantisation
// scratch and the compressed-output buffer. States are reused through
// flateStates, so a steady stream of fragments builds none of them; only
// the exact-size payload an encode returns is allocated per call.
type flateState struct {
	quant []byte
	out   bytes.Buffer
	zw    *flate.Writer
	src   bytes.Reader
	zr    io.ReadCloser // also a flate.Resetter
}

var flateStates = sync.Pool{New: func() any { return new(flateState) }}

// scratch returns the quantisation buffer at n bytes.
func (s *flateState) scratch(n int) []byte {
	if cap(s.quant) < n {
		s.quant = make([]byte, n)
	}
	return s.quant[:n]
}

// encodePixels serializes the pixels of m inside r — which must lie inside m
// and hold at least one pixel — under the codec, row by row out of the image
// in place. The returned slice is the caller's: it shares nothing with m or
// with pooled state.
func encodePixels(m *img.Image, r image.Rectangle, codec int) ([]byte, error) {
	row := func(y int) []img.RGBA { return m.Pix[y*m.W+r.Min.X:][:r.Dx()] }
	switch codec {
	case CodecRaw:
		buf := make([]byte, 0, r.Dx()*r.Dy()*16)
		for y := r.Min.Y; y < r.Max.Y; y++ {
			for _, p := range row(y) {
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(p.R))
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(p.G))
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(p.B))
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(p.A))
			}
		}
		return buf, nil
	case CodecFlate:
		s := flateStates.Get().(*flateState)
		defer flateStates.Put(s)
		quant := s.scratch(r.Dx() * r.Dy() * 8)
		i := 0
		for y := r.Min.Y; y < r.Max.Y; y++ {
			for _, p := range row(y) {
				binary.LittleEndian.PutUint16(quant[i+0:], quant16(p.R))
				binary.LittleEndian.PutUint16(quant[i+2:], quant16(p.G))
				binary.LittleEndian.PutUint16(quant[i+4:], quant16(p.B))
				binary.LittleEndian.PutUint16(quant[i+6:], quant16(p.A))
				i += 8
			}
		}
		s.out.Reset()
		if s.zw == nil {
			zw, err := flate.NewWriter(&s.out, flate.BestSpeed)
			if err != nil {
				return nil, err
			}
			s.zw = zw
		} else {
			s.zw.Reset(&s.out)
		}
		if _, err := s.zw.Write(quant); err != nil {
			return nil, err
		}
		if err := s.zw.Close(); err != nil {
			return nil, err
		}
		return bytes.Clone(s.out.Bytes()), nil
	default:
		return nil, fmt.Errorf("service: unknown pixel codec %d", codec)
	}
}

// decodePixels rebuilds an image from its wire form. w, h and data come off
// the wire: the size is checked before anything is allocated for it, and
// the inflater is read for exactly the w·h·8 bytes the size implies plus one
// — a longer stream is rejected at that byte, however far it would have
// expanded. The image comes from img.Get; the caller may img.Put it once
// nothing refers to its pixels.
func decodePixels(w, h int, codec int, data []byte) (*img.Image, error) {
	if w <= 0 || h <= 0 || w > maxFrameEdge || h > maxFrameEdge {
		return nil, fmt.Errorf("service: bad fragment size %dx%d", w, h)
	}
	switch codec {
	case CodecRaw:
		if len(data) != w*h*16 {
			return nil, fmt.Errorf("service: raw payload is %d bytes, want %d", len(data), w*h*16)
		}
		m := img.Get(w, h)
		for i := range m.Pix {
			m.Pix[i] = img.RGBA{
				R: math.Float32frombits(binary.LittleEndian.Uint32(data[i*16+0:])),
				G: math.Float32frombits(binary.LittleEndian.Uint32(data[i*16+4:])),
				B: math.Float32frombits(binary.LittleEndian.Uint32(data[i*16+8:])),
				A: math.Float32frombits(binary.LittleEndian.Uint32(data[i*16+12:])),
			}
		}
		return m, nil
	case CodecFlate:
		s := flateStates.Get().(*flateState)
		defer flateStates.Put(s)
		s.src.Reset(data)
		if s.zr == nil {
			s.zr = flate.NewReader(&s.src)
		} else if err := s.zr.(flate.Resetter).Reset(&s.src, nil); err != nil {
			return nil, fmt.Errorf("service: inflating fragment: %w", err)
		}
		defer s.src.Reset(nil) // data is the message's, not the pool's
		want := w * h * 8
		quant := s.scratch(want + 1)
		if got, err := io.ReadFull(s.zr, quant[:want]); err != nil {
			return nil, fmt.Errorf("service: inflating fragment: %d of %d bytes: %w", got, want, err)
		}
		// The stream must end here: one more byte is an overrun, and anything
		// but a clean EOF is a truncated or corrupt tail.
		if over, err := io.ReadFull(s.zr, quant[want:]); over > 0 {
			return nil, fmt.Errorf("service: inflated payload exceeds the %d bytes of a %dx%d fragment", want, w, h)
		} else if err != io.EOF {
			return nil, fmt.Errorf("service: inflating fragment: %w", err)
		}
		m := img.Get(w, h)
		for i := range m.Pix {
			m.Pix[i] = img.RGBA{
				R: dequant16(binary.LittleEndian.Uint16(quant[i*8+0:])),
				G: dequant16(binary.LittleEndian.Uint16(quant[i*8+2:])),
				B: dequant16(binary.LittleEndian.Uint16(quant[i*8+4:])),
				A: dequant16(binary.LittleEndian.Uint16(quant[i*8+6:])),
			}
		}
		return m, nil
	default:
		return nil, fmt.Errorf("service: unknown pixel codec %d", codec)
	}
}

func quant16(v float32) uint16 {
	if v <= 0 {
		return 0
	}
	if v >= 1 {
		return math.MaxUint16
	}
	return uint16(v*math.MaxUint16 + 0.5)
}

func dequant16(q uint16) float32 {
	return float32(q) / math.MaxUint16
}
