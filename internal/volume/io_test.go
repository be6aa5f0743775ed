package volume

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// readGridInto decodes a VSVOL2 brick file from memory: LoadGridInto's
// readHeader and readBody without a file, so the decoder tests and the
// fuzzer can feed it bytes directly. As LoadGridInto holds a header to the
// file's size, it holds one to what the reader has left before anything is
// allocated.
func readGridInto(r io.Reader, slab Slab) (*Grid, Skip, error) {
	h, err := readHeader(r)
	if err != nil {
		return nil, Skip{}, err
	}
	if sized, ok := r.(interface{ Len() int }); ok && int64(headerSize+sized.Len()) < h.fileSize() {
		return nil, Skip{}, fmt.Errorf("volume: reading voxels: %w", io.ErrUnexpectedEOF)
	}
	return readBody(r, h, slab)
}

// testSkip is a skip section of the right size for g. The volume package
// stores and checks the section without reading it, so its contents are any
// float32s and bytes, the ones a conversion could lose among them; the
// bounds the ray caster computes are raycast's to test.
func testSkip(g *Grid) Skip {
	c := Cells(g.Dims)
	n := c[0] * c[1] * c[2]
	s := Skip{Below: 0.18, Bound: make([]float32, n), Leap: make([]uint8, n)}
	odd := []uint32{0x80000000, 0x00000001, 0x7f800000, 0xff800000, 0x7fc00001}
	for i := range s.Bound {
		s.Bound[i] = float32(i%7) / 3
		if i%11 == 5 {
			s.Bound[i] = math.Float32frombits(odd[i%len(odd)])
		}
		s.Leap[i] = uint8(i * 37)
	}
	return s
}

func TestGridRoundTrip(t *testing.T) {
	g := Generate(Supernova, 12, 10, 14)
	s := testSkip(g)
	var buf bytes.Buffer
	if err := WriteGrid(&buf, g, s); err != nil {
		t.Fatal(err)
	}
	got, skip, err := readGridInto(&buf, Slab{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Dims != g.Dims {
		t.Fatalf("dims = %v, want %v", got.Dims, g.Dims)
	}
	sameBits(t, got.Data, g.Data)
	sameSkip(t, skip, s)
}

// sameSkip requires two skip sections to be equal to the bit.
func sameSkip(t *testing.T, got, want Skip) {
	t.Helper()
	if math.Float32bits(got.Below) != math.Float32bits(want.Below) {
		t.Fatalf("below = %v, want %v", got.Below, want.Below)
	}
	sameBits(t, got.Bound, want.Bound)
	if !bytes.Equal(got.Leap, want.Leap) {
		t.Fatal("leap distances differ")
	}
}

func TestWriteGridRejectsWrongSkipSize(t *testing.T) {
	g := Generate(Plume, 9, 4, 5) // 3×1×2 cells
	s := testSkip(g)
	for name, bad := range map[string]Skip{
		"no section":        {},
		"one bound short":   {Bound: s.Bound[:5], Leap: s.Leap},
		"one distance long": {Bound: s.Bound, Leap: append(s.Leap, 0)},
	} {
		if err := WriteGrid(io.Discard, g, bad); err == nil {
			t.Errorf("%s: written", name)
		}
	}
}

func TestReadGridRejectsBadMagic(t *testing.T) {
	if _, _, err := readGridInto(strings.NewReader("NOTVOL\nxxxx"), Slab{}); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestReadGridRejectsTruncated(t *testing.T) {
	g := Generate(Plume, 8, 8, 8)
	var buf bytes.Buffer
	if err := WriteGrid(&buf, g, testSkip(g)); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{buf.Len() / 2, buf.Len() - 1} { // in the voxels, in the leap distances
		if _, _, err := readGridInto(bytes.NewReader(buf.Bytes()[:n]), Slab{}); err == nil {
			t.Errorf("a volume cut to %d of %d bytes accepted", n, buf.Len())
		}
	}
}

func TestReadGridRejectsHugeDims(t *testing.T) {
	// nx = 1<<20: unreasonable.
	if _, _, err := readGridInto(bytes.NewReader(header(1<<20, 1, 1)), Slab{}); err == nil {
		t.Error("huge dims accepted")
	}
}

// The cell dimensions in the header must be the ones the grid's have.
func TestReadGridRejectsWrongCells(t *testing.T) {
	g := Generate(Plume, 9, 4, 5)
	var buf bytes.Buffer
	if err := WriteGrid(&buf, g, testSkip(g)); err != nil {
		t.Fatal(err)
	}
	for axis, want := range Cells(g.Dims) {
		for _, lie := range []uint32{0, uint32(want) + 1, 1 << 31} {
			file := bytes.Clone(buf.Bytes())
			binary.LittleEndian.PutUint32(file[len(magic)+12+4*axis:], lie)
			if _, _, err := readGridInto(bytes.NewReader(file), Slab{}); err == nil {
				t.Errorf("axis %d: %d cells accepted, the grid has %d", axis, lie, want)
			}
		}
	}
}

// A file in the format before the skip section is refused, by name.
func TestLoadGridRefusesVSVOL1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.c00.vsvol")
	file := []byte(oldMagic)
	for _, d := range []uint32{2, 2, 1} {
		file = binary.LittleEndian.AppendUint32(file, d)
	}
	file = append(file, make([]byte, 4*4)...)
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := LoadGridInto(path, Slab{})
	if err == nil || !errors.Is(err, errOldFormat) || !strings.Contains(err.Error(), path) {
		t.Errorf("loading a VSVOL1 file: %v; want an error naming %s as VSVOL1", err, path)
	}
}

func TestSaveLoadGrid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.vsvol")
	g := Generate(Combustion, 10, 10, 6)
	s := testSkip(g)
	if err := SaveGrid(path, g, s); err != nil {
		t.Fatal(err)
	}
	got, skip, err := LoadGridInto(path, Slab{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Dims != g.Dims {
		t.Fatalf("dims = %v", got.Dims)
	}
	sameBits(t, got.Data, g.Data)
	sameSkip(t, skip, s)
}

func TestLoadGridMissingFile(t *testing.T) {
	if _, _, err := LoadGridInto(filepath.Join(t.TempDir(), "missing.vsvol"), Slab{}); err == nil {
		t.Error("missing file did not error")
	}
}

// writeGridReference is the plain encoder, the one WriteGrid replaced with
// the skip section added: encoding/binary staging converted copies behind a
// bufio.Writer. Files must stay byte-identical to what it writes.
func writeGridReference(w io.Writer, g *Grid, s Skip) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	c := Cells(g.Dims)
	hdr := [6]uint32{uint32(g.Dims[0]), uint32(g.Dims[1]), uint32(g.Dims[2]), uint32(c[0]), uint32(c[1]), uint32(c[2])}
	for _, v := range []any{hdr[:], s.Below, g.Data, s.Bound, s.Leap} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readGridReference is the plain decoder readHeader and readBody replaced.
func readGridReference(r io.Reader) (*Grid, Skip, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(br, got); err != nil {
		return nil, Skip{}, err
	}
	if string(got) != magic {
		return nil, Skip{}, fmt.Errorf("bad magic %q", got)
	}
	var hdr [6]uint32
	var s Skip
	if err := binary.Read(br, binary.LittleEndian, hdr[:]); err != nil {
		return nil, Skip{}, err
	}
	if err := binary.Read(br, binary.LittleEndian, &s.Below); err != nil {
		return nil, Skip{}, err
	}
	g := NewGrid(int(hdr[0]), int(hdr[1]), int(hdr[2]))
	n := int(hdr[3] * hdr[4] * hdr[5])
	s.Bound, s.Leap = make([]float32, n), make([]uint8, n)
	for _, v := range []any{g.Data, s.Bound, s.Leap} {
		if err := binary.Read(br, binary.LittleEndian, v); err != nil {
			return nil, Skip{}, err
		}
	}
	return g, s, nil
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
	s := testSkip(g)
	s.Below = float32(math.Inf(-1))
	var want, got bytes.Buffer
	if err := writeGridReference(&want, g, s); err != nil {
		t.Fatal(err)
	}
	if err := WriteGrid(&got, g, s); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("WriteGrid's bytes differ from the reference encoder's")
	}
	ref, refSkip, err := readGridReference(bytes.NewReader(want.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	back, skip, err := readGridInto(bytes.NewReader(want.Bytes()), Slab{})
	if err != nil {
		t.Fatal(err)
	}
	if back.Dims != ref.Dims {
		t.Fatalf("dims = %v, want %v", back.Dims, ref.Dims)
	}
	sameBits(t, back.Data, ref.Data)
	sameBits(t, back.Data, g.Data)
	sameSkip(t, skip, refSkip)
	sameSkip(t, skip, s)
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
	if err := writeFloatsPortable(&got, g.Data); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("portable encoder's bytes differ from the reference")
	}
	if hostLittleEndian && !bytes.Equal(floatBytes(g.Data), want.Bytes()) {
		t.Fatal("the voxels' own bytes differ from the reference on a little-endian host")
	}
	back := make([]float32, len(g.Data))
	if err := readFloatsPortable(bytes.NewReader(want.Bytes()), back); err != nil {
		t.Fatal(err)
	}
	sameBits(t, back, g.Data)
	if err := readFloatsPortable(bytes.NewReader(want.Bytes()[:want.Len()-1]), back); err == nil {
		t.Error("portable decoder accepted a short read")
	}
}

// Each part of a slab is used when it has room and left alone when not:
// 6×5×4 voxels are 120, in 2×2×1 = 4 cells.
func TestReadGridIntoRecyclesSlab(t *testing.T) {
	g := Generate(Plume, 6, 5, 4)
	s := testSkip(g)
	var buf bytes.Buffer
	if err := WriteGrid(&buf, g, s); err != nil {
		t.Fatal(err)
	}
	voxels, bound, leap := make([]float32, 1000), make([]float32, 10), make([]uint8, 10)
	for i := range voxels {
		voxels[i] = -1
	}
	got, skip, err := readGridInto(bytes.NewReader(buf.Bytes()), Slab{voxels[:3], bound[:1], leap[:0]})
	if err != nil {
		t.Fatal(err)
	}
	if &got.Data[0] != &voxels[0] || &skip.Bound[0] != &bound[0] || &skip.Leap[0] != &leap[0] {
		t.Error("a slab with room was not used")
	}
	sameBits(t, got.Data, g.Data)
	sameSkip(t, skip, s)
	small, skip, err := readGridInto(bytes.NewReader(buf.Bytes()), Slab{voxels[:0:100], bound[:0:3], leap[:4]})
	if err != nil {
		t.Fatal(err)
	}
	if &small.Data[0] == &voxels[0] || &skip.Bound[0] == &bound[0] {
		t.Error("a slab without room was used")
	}
	if &skip.Leap[0] != &leap[0] {
		t.Error("leap distances with room were not used beside voxels and bounds without")
	}
	sameBits(t, small.Data, g.Data)
	sameSkip(t, skip, s)
}

// header returns a VSVOL2 header claiming the given dimensions, with the
// cell dimensions that go with them.
func header(nx, ny, nz uint32) []byte {
	b := []byte(magic)
	for _, d := range []uint32{nx, ny, nz} {
		b = binary.LittleEndian.AppendUint32(b, d)
	}
	for _, d := range []uint32{nx, ny, nz} {
		b = binary.LittleEndian.AppendUint32(b, (d+CellEdge-1)>>CellShift)
	}
	return binary.LittleEndian.AppendUint32(b, 0)
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
		{"the voxels there, no skip section", append(header(64, 64, 64), make([]byte, 4<<18)...)},
	} {
		path := filepath.Join(dir, "lying.vsvol")
		if err := os.WriteFile(path, tc.file, 0o644); err != nil {
			t.Fatal(err)
		}
		got := allocated(func() {
			if _, _, err := readGridInto(bytes.NewReader(tc.file), Slab{}); err == nil {
				t.Errorf("%s: readGridInto accepted it", tc.name)
			}
			if _, _, err := LoadGridInto(path, Slab{}); err == nil {
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
	if err := WriteGrid(&buf, g, testSkip(g)); err != nil {
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
		if _, _, err := LoadGridInto(path, Slab{}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzReadGrid feeds readGridInto arbitrary bytes: it must not panic, must not
// allocate more than the input could fill (plus a constant), and whatever it
// accepts, voxels and skip section, must encode back to the bytes it was
// read from.
func FuzzReadGrid(f *testing.F) {
	var valid bytes.Buffer
	g := Generate(Supernova, 2, 3, 4)
	if err := WriteGrid(&valid, g, testSkip(g)); err != nil {
		f.Fatal(err)
	}
	var cells bytes.Buffer // 9×5×6 voxels in 3×2×2 cells
	g = Generate(Plume, 9, 5, 6)
	if err := WriteGrid(&cells, g, testSkip(g)); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(cells.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-1])
	f.Add(cells.Bytes()[:cells.Len()-13])
	f.Add(valid.Bytes()[:headerSize])
	f.Add(valid.Bytes()[:5])
	f.Add(append(header(16384, 16384, 16384), 1, 2, 3, 4))
	f.Add(append(header(16384, 16384, 1), 1, 2, 3, 4))
	f.Add(append(header(0, 1, 1), 1, 2, 3, 4))
	f.Add(append([]byte(oldMagic), 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 2, 3, 4))
	f.Fuzz(func(t *testing.T, data []byte) {
		var g *Grid
		var s Skip
		var err error
		got := allocated(func() { g, s, err = readGridInto(bytes.NewReader(data), Slab{}) })
		if limit := uint64(len(data)) + 1<<20; got > limit {
			t.Fatalf("%d input bytes made readGridInto allocate %d", len(data), got)
		}
		if err != nil {
			return
		}
		n := g.Dims[0] * g.Dims[1] * g.Dims[2]
		c := Cells(g.Dims)
		cells := c[0] * c[1] * c[2]
		size := headerSize + 4*n + 5*cells
		if len(g.Data) != n || len(s.Bound) != cells || len(s.Leap) != cells || size > len(data) {
			t.Fatalf("accepted %v with %d voxels and %d+%d cells from %d bytes", g.Dims, len(g.Data), len(s.Bound), len(s.Leap), len(data))
		}
		var back bytes.Buffer
		if err := WriteGrid(&back, g, s); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back.Bytes(), data[:size]) {
			t.Fatal("an accepted grid does not encode back to its input")
		}
	})
}
