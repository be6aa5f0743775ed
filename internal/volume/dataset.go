// Package volume models volumetric datasets at two fidelities.
//
// At *metadata* fidelity a Dataset is a named size plus a chunk
// decomposition; this is all the scheduler and the discrete-event simulator
// ever look at, and it lets us describe the paper's 2 GB–8 GB datasets
// without allocating them. At *voxel* fidelity a Grid holds real scalar
// data produced by the synthetic field generators in field.go, bricked by
// the same decomposition policies, and fed to the software ray caster.
package volume

import (
	"fmt"

	"vizsched/internal/units"
)

// DatasetID identifies a dataset within a service.
type DatasetID int

// ChunkID identifies one chunk of one dataset. Chunks are the unit of
// caching, I/O, and task assignment throughout the system.
type ChunkID struct {
	Dataset DatasetID
	Index   int
}

// String renders the chunk as "d3/c2".
func (c ChunkID) String() string { return fmt.Sprintf("d%d/c%d", int(c.Dataset), c.Index) }

// Chunk is one piece of a decomposed dataset.
type Chunk struct {
	ID   ChunkID
	Size units.Bytes
	// Extent is the brick's voxel bounding box when the dataset has voxel
	// fidelity; zero-valued for metadata-only datasets.
	Extent Box
}

// Dataset is the metadata view of a volumetric dataset.
type Dataset struct {
	ID     DatasetID
	Name   string
	Size   units.Bytes
	Chunks []Chunk
}

// Decomposition is a policy for splitting a dataset into chunks (§III-C).
type Decomposition interface {
	// Split returns the chunk sizes for a dataset of the given total size.
	Split(size units.Bytes) []units.Bytes
	// Name identifies the policy in logs and experiment output.
	Name() string
}

// MaxChunk decomposes into m = ⌈size/Chkmax⌉ equal chunks, the paper's
// preferred policy: a minimal number of chunks each no larger than Chkmax
// (which must not exceed a node's GPU memory).
type MaxChunk struct {
	Chkmax units.Bytes
}

// Name implements Decomposition.
func (p MaxChunk) Name() string { return fmt.Sprintf("maxchunk(%v)", p.Chkmax) }

// Split implements Decomposition.
func (p MaxChunk) Split(size units.Bytes) []units.Bytes {
	if p.Chkmax <= 0 {
		panic("volume: MaxChunk requires positive Chkmax")
	}
	if size <= 0 {
		return nil
	}
	m := units.CeilDiv(int64(size), int64(p.Chkmax))
	chunks := make([]units.Bytes, m)
	base := size / units.Bytes(m)
	rem := size - base*units.Bytes(m)
	for i := range chunks {
		chunks[i] = base
		if units.Bytes(i) < rem {
			chunks[i]++
		}
	}
	return chunks
}

// Uniform decomposes into exactly N equal chunks regardless of size — the
// FCFSU baseline's policy, where N is the number of rendering nodes.
type Uniform struct {
	N int
}

// Name implements Decomposition.
func (p Uniform) Name() string { return fmt.Sprintf("uniform(%d)", p.N) }

// Split implements Decomposition.
func (p Uniform) Split(size units.Bytes) []units.Bytes {
	if p.N <= 0 {
		panic("volume: Uniform requires positive N")
	}
	if size <= 0 {
		return nil
	}
	chunks := make([]units.Bytes, p.N)
	base := size / units.Bytes(p.N)
	rem := size - base*units.Bytes(p.N)
	for i := range chunks {
		chunks[i] = base
		if units.Bytes(i) < rem {
			chunks[i]++
		}
	}
	return chunks
}

// NewDataset builds a metadata dataset with the given decomposition.
func NewDataset(id DatasetID, name string, size units.Bytes, policy Decomposition) *Dataset {
	sizes := policy.Split(size)
	d := &Dataset{ID: id, Name: name, Size: size}
	d.Chunks = make([]Chunk, len(sizes))
	for i, s := range sizes {
		d.Chunks[i] = Chunk{ID: ChunkID{Dataset: id, Index: i}, Size: s}
	}
	return d
}

// Library is an ordered collection of datasets, as served by a head node.
type Library struct {
	datasets []*Dataset
	byID     map[DatasetID]*Dataset
}

// NewLibrary returns an empty library.
func NewLibrary() *Library {
	return &Library{byID: make(map[DatasetID]*Dataset)}
}

// Add registers a dataset. Duplicate IDs panic: the library is built once at
// configuration time and a duplicate is always a setup bug.
func (l *Library) Add(d *Dataset) {
	if _, dup := l.byID[d.ID]; dup {
		panic(fmt.Sprintf("volume: duplicate dataset id %d", d.ID))
	}
	l.datasets = append(l.datasets, d)
	l.byID[d.ID] = d
}

// Get returns the dataset with the given ID, or nil.
func (l *Library) Get(id DatasetID) *Dataset { return l.byID[id] }

// Chunk resolves a ChunkID to its Chunk. It panics on dangling IDs, which
// indicate corruption of scheduler state.
func (l *Library) Chunk(id ChunkID) Chunk {
	d := l.byID[id.Dataset]
	if d == nil || id.Index < 0 || id.Index >= len(d.Chunks) {
		panic(fmt.Sprintf("volume: dangling chunk id %v", id))
	}
	return d.Chunks[id.Index]
}

// All returns the datasets in insertion order. The returned slice is shared;
// callers must not mutate it.
func (l *Library) All() []*Dataset { return l.datasets }

// Len returns the number of datasets.
func (l *Library) Len() int { return len(l.datasets) }

// TotalSize returns the combined size of all datasets.
func (l *Library) TotalSize() units.Bytes {
	var sum units.Bytes
	for _, d := range l.datasets {
		sum += d.Size
	}
	return sum
}
