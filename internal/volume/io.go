package volume

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"unsafe"
)

// The on-disk format is a minimal self-describing raw volume:
//
//	magic "VSVOL1\n" | nx,ny,nz uint32 LE | nx*ny*nz float32 LE
//
// It exists so the real service path (volgen → disk → render node cache →
// ray caster) exercises genuine file I/O, the cost the paper's scheduler is
// built to avoid repeating. The voxels are the only part with any size, and
// on a little-endian host they are already laid out in memory the way the
// file holds them: reads land in the []float32's own bytes and writes leave
// from them, one copy each way (DESIGN.md §5.16).

const (
	magic      = "VSVOL1\n"
	headerSize = len(magic) + 3*4

	// maxDim bounds each dimension and maxVoxels their product (1 GiB of
	// float32, more than a node holds as one brick), so no header can ask
	// for an allocation the format was never meant to describe.
	maxDim    = 1 << 14
	maxVoxels = 1 << 28

	// chunkVoxels sizes the fixed buffer the portable codec converts
	// through.
	chunkVoxels = 4096
)

// hostLittleEndian reports whether a float32 in memory already has the
// file's byte order.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// voxelBytes returns the memory of data as bytes, in host byte order.
func voxelBytes(data []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(data))), 4*len(data))
}

// WriteGrid writes g to w in VSVOL1 format.
func WriteGrid(w io.Writer, g *Grid) error {
	var hdr [headerSize]byte
	copy(hdr[:], magic)
	for i, d := range g.Dims {
		binary.LittleEndian.PutUint32(hdr[len(magic)+4*i:], uint32(d))
	}
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if hostLittleEndian {
		_, err := w.Write(voxelBytes(g.Data))
		return err
	}
	return writeVoxelsPortable(w, g.Data)
}

// writeVoxelsPortable encodes data little-endian on any host.
func writeVoxelsPortable(w io.Writer, data []float32) error {
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

// readVoxelsPortable fills data from little-endian bytes on any host.
func readVoxelsPortable(r io.Reader, data []float32) error {
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

// readHeader parses and checks the magic and the dimensions, and returns
// them with their product.
func readHeader(r io.Reader) (dims [3]int, voxels int, err error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return dims, 0, fmt.Errorf("volume: reading header: %w", err)
	}
	if string(hdr[:len(magic)]) != magic {
		return dims, 0, fmt.Errorf("volume: bad magic %q", hdr[:len(magic)])
	}
	n := uint64(1)
	for i := range dims {
		d := binary.LittleEndian.Uint32(hdr[len(magic)+4*i:])
		if d == 0 || d > maxDim {
			return dims, 0, fmt.Errorf("volume: unreasonable dimension %d", d)
		}
		dims[i] = int(d)
		n *= uint64(d)
	}
	if n > maxVoxels {
		return dims, 0, fmt.Errorf("volume: %dx%dx%d is more than %d voxels", dims[0], dims[1], dims[2], maxVoxels)
	}
	return dims, int(n), nil
}

// readVoxels reads the n voxels of a dims-sized grid into slab when its
// capacity suffices, and into a new slice otherwise.
func readVoxels(r io.Reader, dims [3]int, n int, slab []float32) (*Grid, error) {
	if cap(slab) < n {
		slab = make([]float32, n)
	}
	data := slab[:n]
	var err error
	if hostLittleEndian {
		_, err = io.ReadFull(r, voxelBytes(data))
	} else {
		err = readVoxelsPortable(r, data)
	}
	if err != nil {
		return nil, fmt.Errorf("volume: reading voxels: %w", err)
	}
	return &Grid{Dims: dims, Data: data}, nil
}

// SaveGrid writes g to the named file.
func SaveGrid(path string, g *Grid) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteGrid(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadGridInto reads a volume from the named file into a destination to
// recycle: the grid's Data is slab's memory when cap(slab) holds the volume,
// and newly allocated otherwise. On error the slab is still the caller's,
// its contents unspecified. The file must be exactly as long as its header
// says, which is checked before the voxels get anywhere to go.
func LoadGridInto(path string, slab []float32) (*Grid, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	dims, n, err := readHeader(f)
	if err != nil {
		return nil, err
	}
	if want := int64(headerSize + 4*n); st.Size() != want {
		return nil, fmt.Errorf("volume: %s is %d bytes, its %dx%dx%d header needs %d",
			path, st.Size(), dims[0], dims[1], dims[2], want)
	}
	return readVoxels(f, dims, n, slab)
}
