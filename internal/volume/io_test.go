package volume

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// readGridInto decodes a VSVOL1 volume from memory: LoadGridInto's
// readHeader and readVoxels without a file, so the decoder tests and the
// fuzzer can feed it bytes directly. As LoadGridInto holds a header to the
// file's size, it holds one to what the reader has left before anything is
// allocated.
func readGridInto(r io.Reader, slab []float32) (*Grid, error) {
	dims, n, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	if sized, ok := r.(interface{ Len() int }); ok && sized.Len() < 4*n {
		return nil, fmt.Errorf("volume: reading voxels: %w", io.ErrUnexpectedEOF)
	}
	return readVoxels(r, dims, n, slab)
}

func TestGridRoundTrip(t *testing.T) {
	g := Generate(Supernova, 12, 10, 14)
	var buf bytes.Buffer
	if err := WriteGrid(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := readGridInto(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dims != g.Dims {
		t.Fatalf("dims = %v, want %v", got.Dims, g.Dims)
	}
	for i := range g.Data {
		if got.Data[i] != g.Data[i] {
			t.Fatalf("voxel %d mismatch", i)
		}
	}
}

func TestReadGridRejectsBadMagic(t *testing.T) {
	if _, err := readGridInto(strings.NewReader("NOTVOL\nxxxx"), nil); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestReadGridRejectsTruncated(t *testing.T) {
	g := Generate(Plume, 8, 8, 8)
	var buf bytes.Buffer
	if err := WriteGrid(&buf, g); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := readGridInto(bytes.NewReader(trunc), nil); err == nil {
		t.Error("truncated volume accepted")
	}
}

func TestReadGridRejectsHugeDims(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(magic)
	// nx = 1<<20: unreasonable.
	buf.Write([]byte{0, 0, 16, 0, 1, 0, 0, 0, 1, 0, 0, 0})
	if _, err := readGridInto(&buf, nil); err == nil {
		t.Error("huge dims accepted")
	}
}

func TestSaveLoadGrid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.vsvol")
	g := Generate(Combustion, 10, 10, 6)
	if err := SaveGrid(path, g); err != nil {
		t.Fatal(err)
	}
	got, err := LoadGridInto(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dims != g.Dims {
		t.Fatalf("dims = %v", got.Dims)
	}
	if got.At(5, 5, 3) != g.At(5, 5, 3) {
		t.Error("voxel mismatch after file roundtrip")
	}
}

func TestLoadGridMissingFile(t *testing.T) {
	if _, err := LoadGridInto(filepath.Join(t.TempDir(), "missing.vsvol"), nil); err == nil {
		t.Error("missing file did not error")
	}
}

// writeGridReference is the encoder WriteGrid replaced: encoding/binary
// staging a converted copy of the voxels behind a bufio.Writer. Files must
// stay byte-identical to what it wrote.
func writeGridReference(w io.Writer, g *Grid) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	hdr := [3]uint32{uint32(g.Dims[0]), uint32(g.Dims[1]), uint32(g.Dims[2])}
	if err := binary.Write(bw, binary.LittleEndian, hdr[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.Data); err != nil {
		return err
	}
	return bw.Flush()
}

// readGridReference is the decoder readHeader and readVoxels replaced.
func readGridReference(r io.Reader) (*Grid, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(br, got); err != nil {
		return nil, err
	}
	if string(got) != magic {
		return nil, fmt.Errorf("bad magic %q", got)
	}
	var hdr [3]uint32
	if err := binary.Read(br, binary.LittleEndian, hdr[:]); err != nil {
		return nil, err
	}
	g := NewGrid(int(hdr[0]), int(hdr[1]), int(hdr[2]))
	if err := binary.Read(br, binary.LittleEndian, g.Data); err != nil {
		return nil, err
	}
	return g, nil
}

// awkwardGrid is larger than the portable codec's buffer and not a multiple
// of it, and holds the values a conversion could lose: negatives, zeros of
// both signs, denormals, infinities and NaNs with distinct payloads.
func awkwardGrid() *Grid {
	g := Generate(Turbulence(7), 21, 20, 23)
	for i, bits := range []uint32{
		0x80000000, 0x00000001, 0x807fffff, 0x7f800000, 0xff800000,
		0x7fc00000, 0x7fc00001, 0xffc12345, 0x7f800001, 0xbf800000,
	} {
		g.Data[i*977] = math.Float32frombits(bits)
	}
	return g
}

func sameBits(t *testing.T, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d voxels, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("voxel %d = %#08x, want %#08x", i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

func TestGridCodecMatchesReference(t *testing.T) {
	g := awkwardGrid()
	var want, got bytes.Buffer
	if err := writeGridReference(&want, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteGrid(&got, g); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("WriteGrid's bytes differ from the reference encoder's")
	}
	ref, err := readGridReference(bytes.NewReader(want.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	back, err := readGridInto(bytes.NewReader(want.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if back.Dims != ref.Dims {
		t.Fatalf("dims = %v, want %v", back.Dims, ref.Dims)
	}
	sameBits(t, back.Data, ref.Data)
	sameBits(t, back.Data, g.Data)
}

// The portable codec is what a big-endian host runs; it must agree with the
// reference on every host, which on a little-endian one is agreeing with the
// direct path.
func TestPortableVoxelCodecMatchesReference(t *testing.T) {
	g := awkwardGrid()
	var want, got bytes.Buffer
	if err := binary.Write(&want, binary.LittleEndian, g.Data); err != nil {
		t.Fatal(err)
	}
	if err := writeVoxelsPortable(&got, g.Data); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("portable encoder's bytes differ from the reference")
	}
	if hostLittleEndian && !bytes.Equal(voxelBytes(g.Data), want.Bytes()) {
		t.Fatal("the voxels' own bytes differ from the reference on a little-endian host")
	}
	back := make([]float32, len(g.Data))
	if err := readVoxelsPortable(bytes.NewReader(want.Bytes()), back); err != nil {
		t.Fatal(err)
	}
	sameBits(t, back, g.Data)
	if err := readVoxelsPortable(bytes.NewReader(want.Bytes()[:want.Len()-1]), back); err == nil {
		t.Error("portable decoder accepted a short read")
	}
}

func TestReadGridIntoRecyclesSlab(t *testing.T) {
	g := Generate(Plume, 6, 5, 4)
	var buf bytes.Buffer
	if err := WriteGrid(&buf, g); err != nil {
		t.Fatal(err)
	}
	slab := make([]float32, 1000)
	for i := range slab {
		slab[i] = -1
	}
	got, err := readGridInto(bytes.NewReader(buf.Bytes()), slab[:3])
	if err != nil {
		t.Fatal(err)
	}
	if &got.Data[0] != &slab[0] {
		t.Error("a slab with room was not used")
	}
	sameBits(t, got.Data, g.Data)
	small, err := readGridInto(bytes.NewReader(buf.Bytes()), slab[:0:100])
	if err != nil {
		t.Fatal(err)
	}
	if &small.Data[0] == &slab[0] {
		t.Error("a slab without room was used")
	}
	sameBits(t, small.Data, g.Data)
}

// header returns a VSVOL1 header claiming the given dimensions.
func header(nx, ny, nz uint32) []byte {
	b := []byte(magic)
	for _, d := range []uint32{nx, ny, nz} {
		b = binary.LittleEndian.AppendUint32(b, d)
	}
	return b
}

// allocated runs fn and returns the bytes the process allocated meanwhile.
func allocated(fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// A header is input: it must not be able to make the loader panic, or
// allocate what the bytes behind it cannot fill.
func TestHeaderCannotForceAllocation(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		file []byte
	}{
		{"product overflows", append(header(16384, 16384, 16384), 0)},
		{"product over the cap", append(header(16384, 16384, 2), 0)},
		{"1 GiB claimed by 20 bytes", append(header(16384, 16384, 1), 0)},
		{"4 MiB claimed by 20 bytes", append(header(1024, 1024, 1), 0)},
	} {
		path := filepath.Join(dir, "lying.vsvol")
		if err := os.WriteFile(path, tc.file, 0o644); err != nil {
			t.Fatal(err)
		}
		got := allocated(func() {
			if _, err := readGridInto(bytes.NewReader(tc.file), nil); err == nil {
				t.Errorf("%s: readGridInto accepted it", tc.name)
			}
			if _, err := LoadGridInto(path, nil); err == nil {
				t.Errorf("%s: LoadGridInto accepted it", tc.name)
			}
		})
		if got > 64<<10 {
			t.Errorf("%s: rejecting it allocated %d bytes", tc.name, got)
		}
	}
}

func TestLoadGridRequiresExactSize(t *testing.T) {
	g := Generate(Plume, 4, 3, 2)
	var buf bytes.Buffer
	if err := WriteGrid(&buf, g); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "vol.vsvol")
	for name, file := range map[string][]byte{
		"one byte short": buf.Bytes()[:buf.Len()-1],
		"one byte long":  append(buf.Bytes()[:buf.Len():buf.Len()], 0),
	} {
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadGridInto(path, nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzReadGrid feeds readGridInto arbitrary bytes: it must not panic, must not
// allocate more than the input could fill (plus a constant), and whatever it
// accepts must encode back to the bytes it was read from.
func FuzzReadGrid(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteGrid(&valid, Generate(Supernova, 2, 3, 4)); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-1])
	f.Add(valid.Bytes()[:headerSize])
	f.Add(valid.Bytes()[:5])
	f.Add(append(header(16384, 16384, 16384), 1, 2, 3, 4))
	f.Add(append(header(16384, 16384, 1), 1, 2, 3, 4))
	f.Add(append(header(0, 1, 1), 1, 2, 3, 4))
	f.Fuzz(func(t *testing.T, data []byte) {
		var g *Grid
		var err error
		got := allocated(func() { g, err = readGridInto(bytes.NewReader(data), nil) })
		if limit := uint64(len(data)) + 1<<20; got > limit {
			t.Fatalf("%d input bytes made readGridInto allocate %d", len(data), got)
		}
		if err != nil {
			return
		}
		n := g.Dims[0] * g.Dims[1] * g.Dims[2]
		if len(g.Data) != n || headerSize+4*n > len(data) {
			t.Fatalf("accepted %v with %d voxels from %d bytes", g.Dims, len(g.Data), len(data))
		}
		var back bytes.Buffer
		if err := WriteGrid(&back, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back.Bytes(), data[:headerSize+4*n]) {
			t.Fatal("an accepted grid does not encode back to its input")
		}
	})
}
