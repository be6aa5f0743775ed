package volume

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"unsafe"
)

// The on-disk format is a minimal self-describing brick file:
//
//	magic "VSVOL2\n" | nx,ny,nz uint32 LE | cx,cy,cz uint32 LE | below float32 LE
//	| nx*ny*nz float32 LE voxels
//	| cx*cy*cz float32 LE bounds | cx*cy*cz uint8 leap distances
//
// The voxels come first, x fastest. After them is the skip section (Skip):
// the empty-space structure the ray caster would otherwise build from the
// voxels, computed once when the dataset is bricked. Its cell dimensions
// are Cells(nx,ny,nz), and its fixed fields sit in the header so that every
// length is known, and checked against the file's size, before anything is
// allocated.
//
// It exists so the real service path (volgen → disk → render node cache →
// ray caster) exercises genuine file I/O, the cost the paper's scheduler is
// built to avoid repeating. The voxels and bounds are the only parts with
// any size, and on a little-endian host they are already laid out in memory
// the way the file holds them: reads land in the slices' own bytes and
// writes leave from them, one copy each way (DESIGN.md §5.16).

const (
	magic = "VSVOL2\n"
	// oldMagic is the format before the skip section: refused by name.
	oldMagic   = "VSVOL1\n"
	headerSize = len(magic) + 3*4 + 3*4 + 4

	// maxDim bounds each dimension and maxVoxels their product (1 GiB of
	// float32, more than a node holds as one brick), so no header can ask
	// for an allocation the format was never meant to describe.
	maxDim    = 1 << 14
	maxVoxels = 1 << 28

	// chunkVoxels sizes the fixed buffer the portable codec converts
	// through.
	chunkVoxels = 4096
)

// CellShift is log2 of a macrocell's edge: the skip section holds one bound
// and one leap distance per CellEdge³ block of voxels.
const (
	CellShift = 2
	CellEdge  = 1 << CellShift
)

// Cells returns the macrocells per axis of a dims-sized grid: every voxel
// index i lies in cell i >> CellShift.
func Cells(dims [3]int) [3]int {
	var c [3]int
	for i, d := range dims {
		c[i] = (d + CellEdge - 1) >> CellShift
	}
	return c
}

// Skip is a brick file's skip section: the ray caster's empty-space
// structure for the grid before it (raycast.SkipSection builds it; DESIGN.md
// §5.15). Per macrocell, x fastest, Bound holds an upper bound on every
// trilinear sample whose base lies in the cell, and Leap the Chebyshev
// distance in cells, capped at 255, to the nearest cell whose bound is not
// below Below. The format checks its lengths; what it says is trusted as the
// voxels are.
type Skip struct {
	Below float32
	Bound []float32
	Leap  []uint8
}

// Slab is memory a brick file is read into: the voxels, the bounds and the
// leap distances each land in theirs when its capacity holds them, and in
// new memory otherwise.
type Slab struct {
	Voxels []float32
	Bound  []float32
	Leap   []uint8
}

// fileHeader is a parsed and checked brick-file header.
type fileHeader struct {
	dims, cells   [3]int
	voxels, ncell int // the products of dims and of cells
	below         float32
}

// fileSize is the length of a file with this header.
func (h *fileHeader) fileSize() int64 {
	return int64(headerSize) + 4*int64(h.voxels) + 5*int64(h.ncell)
}

// hostLittleEndian reports whether a float32 in memory already has the
// file's byte order.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// floatBytes returns the memory of data as bytes, in host byte order.
func floatBytes(data []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(data))), 4*len(data))
}

// WriteGrid writes g and its skip section to w in VSVOL2 format. The
// section must have one bound and one distance per cell of Cells(g.Dims).
func WriteGrid(w io.Writer, g *Grid, s Skip) error {
	c := Cells(g.Dims)
	if n := c[0] * c[1] * c[2]; len(s.Bound) != n || len(s.Leap) != n {
		return fmt.Errorf("volume: a %dx%dx%d grid has %d cells, the skip section %d bounds and %d distances",
			g.Dims[0], g.Dims[1], g.Dims[2], n, len(s.Bound), len(s.Leap))
	}
	var hdr [headerSize]byte
	copy(hdr[:], magic)
	for i := range 3 {
		binary.LittleEndian.PutUint32(hdr[len(magic)+4*i:], uint32(g.Dims[i]))
		binary.LittleEndian.PutUint32(hdr[len(magic)+12+4*i:], uint32(c[i]))
	}
	binary.LittleEndian.PutUint32(hdr[len(magic)+24:], math.Float32bits(s.Below))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if err := writeFloats(w, g.Data); err != nil {
		return err
	}
	if err := writeFloats(w, s.Bound); err != nil {
		return err
	}
	_, err := w.Write(s.Leap)
	return err
}

// writeFloats writes data little-endian: from its own memory on a
// little-endian host.
func writeFloats(w io.Writer, data []float32) error {
	if hostLittleEndian {
		_, err := w.Write(floatBytes(data))
		return err
	}
	return writeFloatsPortable(w, data)
}

// readFloats fills data from little-endian bytes: into its own memory on a
// little-endian host.
func readFloats(r io.Reader, data []float32) error {
	if hostLittleEndian {
		_, err := io.ReadFull(r, floatBytes(data))
		return err
	}
	return readFloatsPortable(r, data)
}

// writeFloatsPortable encodes data little-endian on any host.
func writeFloatsPortable(w io.Writer, data []float32) error {
	var buf [4 * chunkVoxels]byte
	for len(data) > 0 {
		n := min(len(data), chunkVoxels)
		for i, v := range data[:n] {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
		}
		if _, err := w.Write(buf[:4*n]); err != nil {
			return err
		}
		data = data[n:]
	}
	return nil
}

// readFloatsPortable fills data from little-endian bytes on any host.
func readFloatsPortable(r io.Reader, data []float32) error {
	var buf [4 * chunkVoxels]byte
	for len(data) > 0 {
		n := min(len(data), chunkVoxels)
		if _, err := io.ReadFull(r, buf[:4*n]); err != nil {
			return err
		}
		for i := range data[:n] {
			data[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
		}
		data = data[n:]
	}
	return nil
}

// errOldFormat marks a file written before the skip section existed.
var errOldFormat = errors.New("a VSVOL1 file, which has no skip section: write the dataset again")

// readHeader parses and checks the magic, the dimensions and the cell
// dimensions.
func readHeader(r io.Reader) (h fileHeader, err error) {
	var hdr [headerSize]byte
	got, err := io.ReadFull(r, hdr[:])
	switch {
	case got < len(magic):
	case string(hdr[:len(magic)]) == oldMagic:
		return h, fmt.Errorf("volume: %w", errOldFormat)
	case string(hdr[:len(magic)]) != magic:
		return h, fmt.Errorf("volume: bad magic %q", hdr[:len(magic)])
	}
	if err != nil {
		return h, fmt.Errorf("volume: reading header: %w", err)
	}
	n := uint64(1)
	for i := range h.dims {
		d := binary.LittleEndian.Uint32(hdr[len(magic)+4*i:])
		if d == 0 || d > maxDim {
			return h, fmt.Errorf("volume: unreasonable dimension %d", d)
		}
		h.dims[i] = int(d)
		n *= uint64(d)
	}
	if n > maxVoxels {
		return h, fmt.Errorf("volume: %dx%dx%d is more than %d voxels", h.dims[0], h.dims[1], h.dims[2], maxVoxels)
	}
	h.voxels = int(n)
	h.cells = Cells(h.dims)
	for i, c := range h.cells {
		if got := binary.LittleEndian.Uint32(hdr[len(magic)+12+4*i:]); uint64(got) != uint64(c) {
			return h, fmt.Errorf("volume: a %dx%dx%d grid has %v cells, the header says %d on axis %d",
				h.dims[0], h.dims[1], h.dims[2], h.cells, got, i)
		}
	}
	h.ncell = h.cells[0] * h.cells[1] * h.cells[2]
	h.below = math.Float32frombits(binary.LittleEndian.Uint32(hdr[len(magic)+24:]))
	return h, nil
}

// readBody reads the voxels and the skip section a checked header
// describes, each into its part of slab when that part's capacity suffices
// and into a new slice otherwise.
func readBody(r io.Reader, h fileHeader, slab Slab) (*Grid, Skip, error) {
	voxels := reuse(slab.Voxels, h.voxels)
	s := Skip{Below: h.below, Bound: reuse(slab.Bound, h.ncell), Leap: reuse(slab.Leap, h.ncell)}
	if err := readFloats(r, voxels); err != nil {
		return nil, Skip{}, fmt.Errorf("volume: reading voxels: %w", err)
	}
	if err := readFloats(r, s.Bound); err != nil {
		return nil, Skip{}, fmt.Errorf("volume: reading bounds: %w", err)
	}
	if _, err := io.ReadFull(r, s.Leap); err != nil {
		return nil, Skip{}, fmt.Errorf("volume: reading leap distances: %w", err)
	}
	return &Grid{Dims: h.dims, Data: voxels}, s, nil
}

// reuse returns buf[:n] when buf's capacity holds n elements, and a new
// slice otherwise.
func reuse[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// SaveGrid writes g and its skip section to the named file.
func SaveGrid(path string, g *Grid, s Skip) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteGrid(f, g, s); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadGridInto reads a brick file into memory to recycle (Slab): each part
// lands in slab's memory for it when that holds it, and in new memory
// otherwise. On error the slab is still the caller's, its contents
// unspecified. The file must be exactly as long as its header says, which
// is checked before anything gets anywhere to go; an error names the file.
// The size comes from a seek to the end, which allocates nothing; Stat's
// FileInfo would be the largest allocation of a load into a warm slab.
func LoadGridInto(path string, slab Slab) (*Grid, Skip, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, Skip{}, err
	}
	defer f.Close()
	size, err := f.Seek(0, io.SeekEnd)
	if err == nil {
		_, err = f.Seek(0, io.SeekStart)
	}
	if err != nil {
		return nil, Skip{}, err
	}
	h, err := readHeader(f)
	if err != nil {
		return nil, Skip{}, fmt.Errorf("%s: %w", path, err)
	}
	if want := h.fileSize(); size != want {
		return nil, Skip{}, fmt.Errorf("volume: %s is %d bytes, its %dx%dx%d header needs %d",
			path, size, h.dims[0], h.dims[1], h.dims[2], want)
	}
	g, s, err := readBody(f, h, slab)
	if err != nil {
		return nil, Skip{}, fmt.Errorf("%s: %w", path, err)
	}
	return g, s, nil
}
