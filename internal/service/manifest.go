// Package service is the live (non-simulated) visualization service: a head
// node with listening and dispatching goroutines, rendering workers that
// cache data bricks and run the software ray caster, and a client API —
// the master-slave architecture of the paper's Fig. 1 with Go channels/TCP
// standing in for MPI. The head drives the same core.Scheduler policies the
// simulator evaluates, so Algorithm 1 schedules real renders here.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"vizsched/internal/raycast"
	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// ChunkInfo describes one on-disk brick of a dataset.
type ChunkInfo struct {
	Index      int
	File       string // relative to the manifest's directory
	Extent     volume.Box
	GridOrigin [3]int
	SizeBytes  units.Bytes
}

// Manifest describes a bricked dataset on disk: the unit the workers load
// chunk-by-chunk, which is what makes the service's I/O genuinely chunked
// instead of monolithic.
type Manifest struct {
	Name   string
	Dims   [3]int
	TF     string // transfer-function preset (raycast.PresetTF)
	Chunks []ChunkInfo

	// dir is where the manifest was loaded from; not serialized.
	dir string
}

// TotalSize returns the summed brick payload size.
func (m *Manifest) TotalSize() units.Bytes {
	var sum units.Bytes
	for _, c := range m.Chunks {
		sum += c.SizeBytes
	}
	return sum
}

// ChunkPath returns the absolute path of chunk i's brick file.
func (m *Manifest) ChunkPath(i int) string {
	return filepath.Join(m.dir, m.Chunks[i].File)
}

// manifestFile is the JSON file name within a dataset directory.
const manifestFile = "manifest.json"

// WriteDataset bricks the grid into nChunks z-slabs (each with a one-voxel
// ghost margin so seam interpolation matches a monolithic render), writes
// them plus a manifest into dir, and returns the manifest. Each chunk's
// file also carries its skip section, computed here once for the dataset's
// transfer function (raycast.SkipSection), so a load needs no scan before
// its first render skips empty space (DESIGN.md §5.16). That scan is most of
// a chunk's cost, so chunks are cut, scanned and written GOMAXPROCS at a
// time.
func WriteDataset(dir, name string, g *volume.Grid, nChunks int, tf string) (*Manifest, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	boxes := volume.BrickZ(g.Dims, nChunks)
	m := &Manifest{Name: name, Dims: g.Dims, TF: tf, Chunks: make([]ChunkInfo, len(boxes)), dir: dir}
	classify := raycast.PresetTF(tf)
	errs := make([]error, len(boxes))
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, box := range boxes {
		wg.Add(1)
		slots <- struct{}{}
		go func() {
			defer func() { <-slots; wg.Done() }()
			brick := raycast.MakeBrick(g, box)
			file := fmt.Sprintf("%s.c%02d.vsvol", name, i)
			skip := raycast.SkipSection(brick.Grid, classify)
			if err := volume.SaveGrid(filepath.Join(dir, file), brick.Grid, skip); err != nil {
				errs[i] = fmt.Errorf("service: writing chunk %d: %w", i, err)
				return
			}
			m.Chunks[i] = ChunkInfo{
				Index:      i,
				File:       file,
				Extent:     box,
				GridOrigin: brick.GridOrigin,
				SizeBytes:  brick.Grid.SizeBytes(),
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, manifestFile), raw, 0o644); err != nil {
		return nil, err
	}
	return m, nil
}

// LoadManifest reads a dataset manifest from its directory.
func LoadManifest(dir string) (*Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, err
	}
	m := &Manifest{}
	if err := json.Unmarshal(raw, m); err != nil {
		return nil, fmt.Errorf("service: parsing manifest in %s: %w", dir, err)
	}
	if m.Name == "" || len(m.Chunks) == 0 {
		return nil, fmt.Errorf("service: manifest in %s is empty", dir)
	}
	m.dir = dir
	return m, nil
}

// LoadBrick reads chunk i's voxels and reassembles the renderable brick.
func (m *Manifest) LoadBrick(i int) (*raycast.Brick, error) { return m.LoadBrickInto(i, volume.Slab{}) }

// LoadBrickInto is LoadBrick with memory to recycle: the brick's voxels,
// bounds and leap map use slab's when its capacity holds them, and new
// memory otherwise (volume.LoadGridInto). On error the slab is still the
// caller's. A file whose grid is not the one the manifest describes — the
// chunk's extent plus ghost margin, SizeBytes — is refused: the ray-caster
// indexes the grid by the manifest's geometry. The brick comes with the
// file's skip section published (raycast.Brick.AdoptSkip), so its first
// render skips and leaps.
func (m *Manifest) LoadBrickInto(i int, slab volume.Slab) (*raycast.Brick, error) {
	if i < 0 || i >= len(m.Chunks) {
		return nil, fmt.Errorf("service: dataset %s has no chunk %d", m.Name, i)
	}
	g, skip, err := volume.LoadGridInto(m.ChunkPath(i), slab)
	if err != nil {
		return nil, fmt.Errorf("service: loading %s chunk %d: %w", m.Name, i, err)
	}
	c := m.Chunks[i]
	ghost := raycast.GhostBox(c.Extent, m.Dims)
	if g.Dims != [3]int{ghost.Dx(), ghost.Dy(), ghost.Dz()} || c.GridOrigin != ghost.Min || c.SizeBytes != g.SizeBytes() {
		return nil, fmt.Errorf("service: %s chunk %d: the file's %v grid is not the manifest's %v (%d bytes from %v)",
			m.Name, i, g.Dims, ghost, int64(c.SizeBytes), c.GridOrigin)
	}
	b := &raycast.Brick{
		Grid:       g,
		Extent:     c.Extent,
		GridOrigin: c.GridOrigin,
		FullDims:   m.Dims,
	}
	if err := b.AdoptSkip(skip); err != nil {
		return nil, fmt.Errorf("service: %s chunk %d: %w", m.Name, i, err)
	}
	return b, nil
}

// Catalog is a set of datasets available to a service, keyed by name.
type Catalog struct {
	byName map[string]*Manifest
	names  []string
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{byName: make(map[string]*Manifest)}
}

// Add registers a manifest; duplicate names error.
func (c *Catalog) Add(m *Manifest) error {
	if _, dup := c.byName[m.Name]; dup {
		return fmt.Errorf("service: duplicate dataset %q", m.Name)
	}
	c.byName[m.Name] = m
	c.names = append(c.names, m.Name)
	return nil
}

// LoadDir scans dir for subdirectories containing manifests and adds them.
func (c *Catalog) LoadDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		m, err := LoadManifest(filepath.Join(dir, e.Name()))
		if err != nil {
			if os.IsNotExist(err) {
				continue // not a dataset directory
			}
			return err
		}
		if err := c.Add(m); err != nil {
			return err
		}
	}
	return nil
}

// Get returns the named manifest, or nil.
func (c *Catalog) Get(name string) *Manifest { return c.byName[name] }

// Names returns dataset names in registration order.
func (c *Catalog) Names() []string { return c.names }

// Len returns the number of datasets.
func (c *Catalog) Len() int { return len(c.names) }
