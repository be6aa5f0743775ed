package volume

import (
	"testing"
	"testing/quick"

	"vizsched/internal/units"
)

func TestMaxChunkSplit(t *testing.T) {
	p := MaxChunk{Chkmax: 512 * units.MB}
	cases := []struct {
		size  units.Bytes
		wantN int
	}{
		{2 * units.GB, 4},
		{2*units.GB + 1, 5},
		{512 * units.MB, 1},
		{1, 1},
		{8 * units.GB, 16},
	}
	for _, c := range cases {
		chunks := p.Split(c.size)
		if len(chunks) != c.wantN {
			t.Errorf("Split(%v) yielded %d chunks, want %d", c.size, len(chunks), c.wantN)
		}
		var sum units.Bytes
		for _, s := range chunks {
			if s > p.Chkmax {
				t.Errorf("Split(%v) chunk %v exceeds Chkmax %v", c.size, s, p.Chkmax)
			}
			sum += s
		}
		if sum != c.size {
			t.Errorf("Split(%v) chunks sum to %v", c.size, sum)
		}
	}
}

func TestMaxChunkZeroSize(t *testing.T) {
	if got := (MaxChunk{Chkmax: units.MB}).Split(0); got != nil {
		t.Errorf("Split(0) = %v, want nil", got)
	}
}

func TestMaxChunkPanicsWithoutChkmax(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MaxChunk{}.Split(units.GB)
}

func TestUniformSplit(t *testing.T) {
	p := Uniform{N: 8}
	chunks := p.Split(2 * units.GB)
	if len(chunks) != 8 {
		t.Fatalf("got %d chunks, want 8", len(chunks))
	}
	var sum units.Bytes
	for _, s := range chunks {
		sum += s
	}
	if sum != 2*units.GB {
		t.Errorf("chunks sum to %v", sum)
	}
	// Equal split of an exactly divisible size.
	for _, s := range chunks {
		if s != 256*units.MB {
			t.Errorf("chunk = %v, want 256MB", s)
		}
	}
}

// Property: any decomposition conserves total size, produces positive chunk
// sizes, and chunk sizes differ by at most one byte.
func TestQuickDecompositionConserves(t *testing.T) {
	check := func(p Decomposition) func(uint32) bool {
		return func(raw uint32) bool {
			size := units.Bytes(raw%(1<<30) + 1)
			chunks := p.Split(size)
			var sum units.Bytes
			lo, hi := chunks[0], chunks[0]
			for _, s := range chunks {
				if s <= 0 {
					return false
				}
				sum += s
				if s < lo {
					lo = s
				}
				if s > hi {
					hi = s
				}
			}
			return sum == size && hi-lo <= 1
		}
	}
	if err := quick.Check(check(MaxChunk{Chkmax: 64 * units.MB}), nil); err != nil {
		t.Errorf("MaxChunk: %v", err)
	}
	if err := quick.Check(check(Uniform{N: 7}), nil); err != nil {
		t.Errorf("Uniform: %v", err)
	}
}

// Property: MaxChunk uses the minimal chunk count subject to the cap.
func TestQuickMaxChunkMinimal(t *testing.T) {
	p := MaxChunk{Chkmax: 10 * units.MB}
	f := func(raw uint32) bool {
		size := units.Bytes(raw%(1<<28) + 1)
		m := len(p.Split(size))
		// m chunks suffice, m-1 do not.
		return units.Bytes(m)*p.Chkmax >= size && units.Bytes(m-1)*p.Chkmax < size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewDatasetAndLibrary(t *testing.T) {
	lib := NewLibrary()
	for i := 0; i < 3; i++ {
		d := NewDataset(DatasetID(i), "ds", 2*units.GB, MaxChunk{Chkmax: 512 * units.MB})
		if len(d.Chunks) != 4 {
			t.Fatalf("chunk count = %d, want 4", len(d.Chunks))
		}
		var sum units.Bytes
		for _, c := range d.Chunks {
			sum += c.Size
		}
		if sum != d.Size {
			t.Fatalf("chunk sizes sum to %v, want %v", sum, d.Size)
		}
		lib.Add(d)
	}
	if lib.Len() != 3 {
		t.Errorf("Len = %d", lib.Len())
	}
	if lib.TotalSize() != 6*units.GB {
		t.Errorf("TotalSize = %v", lib.TotalSize())
	}
	c := lib.Chunk(ChunkID{Dataset: 1, Index: 2})
	if c.ID != (ChunkID{Dataset: 1, Index: 2}) || c.Size != 512*units.MB {
		t.Errorf("Chunk = %+v", c)
	}
	if lib.Get(2) == nil || lib.Get(9) != nil {
		t.Error("Get misbehaves")
	}
}

func TestLibraryDuplicatePanics(t *testing.T) {
	lib := NewLibrary()
	lib.Add(NewDataset(1, "a", units.GB, Uniform{N: 2}))
	defer func() {
		if recover() == nil {
			t.Error("duplicate Add did not panic")
		}
	}()
	lib.Add(NewDataset(1, "b", units.GB, Uniform{N: 2}))
}

func TestLibraryDanglingChunkPanics(t *testing.T) {
	lib := NewLibrary()
	lib.Add(NewDataset(1, "a", units.GB, Uniform{N: 2}))
	defer func() {
		if recover() == nil {
			t.Error("dangling Chunk did not panic")
		}
	}()
	lib.Chunk(ChunkID{Dataset: 1, Index: 99})
}

func TestChunkIDString(t *testing.T) {
	if got := (ChunkID{Dataset: 3, Index: 2}).String(); got != "d3/c2" {
		t.Errorf("got %q", got)
	}
}
