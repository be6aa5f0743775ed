package service

import (
	"encoding/binary"
	"errors"
	"fmt"
	"image"
	"math"
	"sync"

	"vizsched/internal/img"
)

// The fragment pixel codec. Each channel is quantised to 16 bits, and the
// rectangle's pixels, row-major, are cut into runs: a run of transparent
// pixels (all four words 0) is sent as its length alone, every other pixel
// as its four words. Volume-rendered fragments are mostly transparent (rays
// that miss the brick), and the pixels a ray does hit vary too much for a
// byte-oriented entropy coder to find much in them: over the benchmark's
// orbit and fanout fragments DEFLATE shrank the quantised bytes 1.40×,
// zero runs alone ≈1.41×, at a tenth to a twentieth of the encode time.
//
// The payload is a sequence of pairs (zeros uvarint, literals uvarint,
// literals × 8 bytes: quantised R, G, B, A, little-endian) covering exactly
// the rectangle's pixels. It is canonical — only the first pair may have no
// zeros, only the last no literals, no literal pixel is transparent and
// nothing follows the last pair — so a stream decodes only if it is the
// encoding of what it decodes to.
const (
	// CodecRuns is the one pixel codec: 16-bit channels, transparent runs.
	CodecRuns = 1
	// CodecFlate is the old name of CodecRuns, which took over its wire
	// value.
	//
	// Deprecated: use CodecRuns.
	CodecFlate = CodecRuns
)

// maxFrameEdge bounds a frame's width and height, for requests at admission
// and for fragment sizes read off the wire.
const maxFrameEdge = 4096

// runScratch is where an encode quantises a rectangle before it knows the
// payload's size: the literal pixels' words in order, and the run lengths,
// zeros and literals alternating. Reused through runScratches, so an encode
// allocates only the exact-size payload it returns.
type runScratch struct {
	lits []byte
	runs []uint32
}

var runScratches = sync.Pool{New: func() any { return new(runScratch) }}

// encodePixels serializes the pixels of m inside r — which must lie inside m
// and hold at least one pixel — quantising and finding runs in one pass over
// the image's rows in place. The returned slice is the caller's: it shares
// nothing with m or with pooled state.
func encodePixels(m *img.Image, r image.Rectangle) []byte {
	s := runScratches.Get().(*runScratch)
	defer runScratches.Put(s)
	if n := r.Dx() * r.Dy() * 8; cap(s.lits) < n {
		s.lits = make([]byte, n)
	}
	lits, runs := s.lits[:cap(s.lits)], s.runs[:0]
	var zeros, literals uint32
	used := 0
	for y := r.Min.Y; y < r.Max.Y; y++ {
		for _, p := range m.Pix[y*m.W+r.Min.X:][:r.Dx()] {
			q := uint64(quant16(p.R)) | uint64(quant16(p.G))<<16 | uint64(quant16(p.B))<<32 | uint64(quant16(p.A))<<48
			if q == 0 {
				if literals > 0 {
					runs = append(runs, zeros, literals)
					zeros, literals = 0, 0
				}
				zeros++
				continue
			}
			binary.LittleEndian.PutUint64(lits[used:], q)
			used += 8
			literals++
		}
	}
	runs = append(runs, zeros, literals)
	s.runs = runs

	size := used
	for _, n := range runs {
		size += uvarintLen(n)
	}
	out := make([]byte, 0, size)
	lits = lits[:used]
	for i := 0; i < len(runs); i += 2 {
		out = binary.AppendUvarint(out, uint64(runs[i]))
		out = binary.AppendUvarint(out, uint64(runs[i+1]))
		k := int(runs[i+1]) * 8
		out = append(out, lits[:k]...)
		lits = lits[k:]
	}
	return out
}

// uvarintLen is the length of n's uvarint encoding.
func uvarintLen(n uint32) int {
	k := 1
	for ; n >= 0x80; n >>= 7 {
		k++
	}
	return k
}

// decodePixels rebuilds an image from its wire form. w, h and data come off
// the wire: the size is checked before anything is allocated for it, and
// every run before it is applied — a run past the frame, or a literal run
// past the bytes left, is rejected there, whatever the stream claims next.
// The image comes from img.Get; the caller may img.Put it once nothing
// refers to its pixels. A rejected stream's image is put back here.
func decodePixels(w, h int, codec int, data []byte) (*img.Image, error) {
	if w <= 0 || h <= 0 || w > maxFrameEdge || h > maxFrameEdge {
		return nil, fmt.Errorf("service: bad fragment size %dx%d", w, h)
	}
	if codec != CodecRuns {
		return nil, fmt.Errorf("service: unknown pixel codec %d", codec)
	}
	m := img.Get(w, h)
	if err := decodeRuns(m.Pix, data); err != nil {
		img.Put(m)
		return nil, fmt.Errorf("service: %dx%d fragment: %w", w, h, err)
	}
	return m, nil
}

var errRunVarint = errors.New("run length truncated, overlong or over 64 bits")

// decodeRuns writes the pixels data encodes into pix, which must be
// transparent already: a zero run writes nothing.
func decodeRuns(pix []img.RGBA, data []byte) error {
	i := 0
	for {
		zeros, err := readRun(&data)
		if err != nil {
			return err
		}
		literals, err := readRun(&data)
		if err != nil {
			return err
		}
		if zeros == 0 && i > 0 {
			return fmt.Errorf("empty zero run at pixel %d", i)
		}
		if zeros > uint64(len(pix)-i) {
			return fmt.Errorf("zero run of %d at pixel %d overshoots %d pixels", zeros, i, len(pix))
		}
		i += int(zeros)
		if literals > uint64(len(pix)-i) {
			return fmt.Errorf("literal run of %d at pixel %d overshoots %d pixels", literals, i, len(pix))
		}
		if literals > uint64(len(data)/8) {
			return fmt.Errorf("literal run of %d at pixel %d outruns the %d bytes left", literals, i, len(data))
		}
		if literals == 0 && i < len(pix) {
			return fmt.Errorf("empty literal run at pixel %d of %d", i, len(pix))
		}
		lits, dst := data[:literals*8], pix[i:i+int(literals)]
		for j := range dst {
			q := binary.LittleEndian.Uint64(lits[j*8:])
			if q == 0 {
				return fmt.Errorf("transparent literal at pixel %d", i+j)
			}
			dst[j] = img.RGBA{
				R: dequant16(uint16(q)),
				G: dequant16(uint16(q >> 16)),
				B: dequant16(uint16(q >> 32)),
				A: dequant16(uint16(q >> 48)),
			}
		}
		data = data[len(lits):]
		if i += int(literals); i == len(pix) {
			if len(data) > 0 {
				return fmt.Errorf("%d bytes after the last pixel", len(data))
			}
			return nil
		}
	}
}

// readRun reads one run length off the front of *data. Only the shortest
// encoding of a length is accepted: the stream is canonical.
func readRun(data *[]byte) (uint64, error) {
	n, k := binary.Uvarint(*data)
	if k <= 0 || (k > 1 && (*data)[k-1] == 0) {
		return 0, errRunVarint
	}
	*data = (*data)[k:]
	return n, nil
}

// quant16 maps a channel to 16 bits: NaN and everything at or below 0 to 0,
// everything at or above 1 to 65535.
func quant16(v float32) uint16 {
	if !(v > 0) {
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
