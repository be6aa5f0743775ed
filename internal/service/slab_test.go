package service

import (
	"bytes"
	"math"
	"os"
	"sync"
	"testing"
	"time"

	"vizsched/internal/core"
	"vizsched/internal/fracshare"
	"vizsched/internal/img"
	"vizsched/internal/raycast"
	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// unevenDataset bricks a 16×16×20 volume into three z-slabs whose grids,
// ghost layers included, are 8, 9 and 7 slices deep.
func unevenDataset(t *testing.T) *Manifest {
	t.Helper()
	g := volume.Generate(volume.Supernova, 16, 16, 20)
	m, err := WriteDataset(t.TempDir(), "nova", g, 3, "supernova")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSlabRecycleLargerIntoSmaller(t *testing.T) {
	m := unevenDataset(t)
	big, err := m.LoadBrick(1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.LoadBrick(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Grid.Data) >= len(big.Grid.Data) {
		t.Fatalf("chunk 2 holds %d voxels, chunk 1 %d: want a smaller one", len(want.Grid.Data), len(big.Grid.Data))
	}
	slab := big.Slab()
	got, err := m.LoadBrickInto(2, slab)
	if err != nil {
		t.Fatal(err)
	}
	d := got.Grid.Dims
	if len(got.Grid.Data) != d[0]*d[1]*d[2] || got.Grid.Dims != want.Grid.Dims {
		t.Fatalf("recycled grid is %v with %d voxels, want %v with %d", d, len(got.Grid.Data), want.Grid.Dims, len(want.Grid.Data))
	}
	reused := got.Slab()
	if &reused.Voxels[0] != &slab.Voxels[0] || &reused.Bound[0] != &slab.Bound[0] || &reused.Leap[0] != &slab.Leap[0] {
		t.Error("the slab was not reused")
	}
	for i, v := range want.Grid.Data {
		if got.Grid.Data[i] != v {
			t.Fatalf("voxel %d = %v in the recycled slab, %v freshly loaded", i, got.Grid.Data[i], v)
		}
	}
	fresh := want.Slab()
	if len(reused.Bound) != len(fresh.Bound) || len(reused.Leap) != len(fresh.Leap) {
		t.Fatalf("recycled skip section holds %d bounds and %d distances, want %d and %d",
			len(reused.Bound), len(reused.Leap), len(fresh.Bound), len(fresh.Leap))
	}
	for i, v := range fresh.Bound {
		if reused.Bound[i] != v || reused.Leap[i] != fresh.Leap[i] {
			t.Fatalf("cell %d: bound %v distance %d in the recycled slab, %v and %d freshly loaded",
				i, reused.Bound[i], reused.Leap[i], v, fresh.Leap[i])
		}
	}
}

func TestSlabRecycleLoadAllocatesLittle(t *testing.T) {
	g := volume.Generate(volume.Plume, 64, 64, 64)
	m, err := WriteDataset(t.TempDir(), "plume", g, 1, "plume")
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.LoadBrick(0)
	if err != nil {
		t.Fatal(err)
	}
	slab := b.Slab()
	load := func() {
		if _, err := m.LoadBrickInto(0, slab); err != nil {
			t.Fatal(err)
		}
	}
	// Measured: 7 allocations, under 1 KB (the path, the file, the grid and
	// brick headers) against the brick's 1 MB.
	if n := testing.AllocsPerRun(20, load); n > 16 {
		t.Errorf("a load into a warm slab makes %v allocations, ceiling 16", n)
	}
	if b := totalAlloc(load); b > 64<<10 {
		t.Errorf("a load into a warm slab allocates %d bytes, ceiling 64 KB", b)
	}

	// live_cold_sweep's brick: half of a 128³ volume, whose skip section
	// (32×32×17 cells, a float32 and a byte each) would be 85 KB a load if
	// the bounds and leap map were not read into the slab too.
	m, err = WriteDataset(t.TempDir(), "nova", volume.Generate(volume.Supernova, 128, 128, 128), 2, "supernova")
	if err != nil {
		t.Fatal(err)
	}
	if b, err = m.LoadBrick(0); err != nil {
		t.Fatal(err)
	}
	slab = b.Slab()
	const loads = 10
	if b := totalAlloc(func() {
		for range loads {
			load()
		}
	}) / loads; b > 4<<10 {
		t.Errorf("a load of a 128³/2 brick into a warm slab allocates %d bytes, ceiling 4 KB", b)
	}
}

func TestLoadBrickRejectsSwappedChunkFile(t *testing.T) {
	m := unevenDataset(t)
	other, err := os.ReadFile(m.ChunkPath(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(m.ChunkPath(0), other, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := m.LoadBrick(0); err == nil {
		t.Error("a chunk file holding another chunk's grid was accepted")
	}
	if _, err := m.LoadBrick(1); err != nil {
		t.Errorf("the untouched chunk: %v", err)
	}
}

// A worker's free list when a load fails: the slab it took comes back, and
// the cache is as it was.
func TestSlabRecycleFailedLoadReturnsSlab(t *testing.T) {
	cat := testCatalog(t, 1)
	brick := cat.Get("plume").Chunks[0].SizeBytes
	w := NewWorker("w", cat, brick*3/2)
	for _, ds := range []string{"plume", "supernova"} { // the second evicts the first
		r, _, _, err := w.loadBrick(ds, 0)
		if err != nil {
			t.Fatal(err)
		}
		w.release(r)
	}
	if len(w.slabs) != 1 || w.lru.Len() != 1 {
		t.Fatalf("free list %d, resident %d after one eviction: want 1 and 1", len(w.slabs), w.lru.Len())
	}
	if err := os.Remove(cat.Get("plume").ChunkPath(0)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := w.loadBrick("plume", 0); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
	if done := w.prefetch(PrefetchBody{Dataset: "plume", Chunk: 0}); done.Loaded {
		t.Fatal("prefetching a missing file succeeded")
	}
	if len(w.slabs) != 1 {
		t.Errorf("free list holds %d slabs after failed loads, want the 1 it had", len(w.slabs))
	}
	cid := w.chunkID("supernova", 0)
	if w.lru.Len() != 1 || len(w.bricks) != 1 || !w.lru.Contains(cid) || w.bricks[cid] == nil {
		t.Errorf("failed loads disturbed the cache: %d resident, %d bricks", w.lru.Len(), len(w.bricks))
	}
}

// The free list keeps at most maxFreeSlabs, the larger ones, and hands a
// slab only to a brick that fills at least half of it.
func TestSlabRecycleFreeListPolicy(t *testing.T) {
	w := NewWorker("w", NewCatalog(), units.MB)
	for _, n := range []int{100, 400, 200, 50} {
		w.recycle(volume.Slab{Voxels: make([]float32, n), Bound: make([]float32, n/64), Leap: make([]uint8, n/64)})
	}
	if len(w.slabs) != maxFreeSlabs {
		t.Fatalf("free list holds %d slabs, want %d", len(w.slabs), maxFreeSlabs)
	}
	if s := w.takeSlab(90); s.Voxels != nil {
		t.Errorf("a %d-voxel slab was handed to a 90-voxel brick", cap(s.Voxels))
	}
	if s := w.takeSlab(150); cap(s.Voxels) != 200 || cap(s.Bound) != 3 || cap(s.Leap) != 3 {
		t.Errorf("a 150-voxel brick got a %d-voxel slab with %d bounds and %d distances, want the 200 with its 3 and 3",
			cap(s.Voxels), cap(s.Bound), cap(s.Leap))
	}
	if s := w.takeSlab(400); cap(s.Voxels) != 400 || len(w.slabs) != 0 {
		t.Errorf("a 400-voxel brick got %d voxels, %d slabs left", cap(s.Voxels), len(w.slabs))
	}
}

// TestSlabRecycleFracSlots is the case slot concurrency makes hard: with
// K = 2 and room for one brick, an executor loading the other dataset evicts
// the brick its neighbour is still ray-casting. If that brick's slab were
// read into before the render let go, frames would differ from those of a
// cluster that never evicts (and the race detector would see the write).
func TestSlabRecycleFracSlots(t *testing.T) {
	cat := testCatalog(t, 1)
	brick := cat.Get("plume").Chunks[0].SizeBytes
	request := func(i int) RenderBody {
		return RenderBody{
			Dataset: []string{"supernova", "plume"}[i%2], Dist: 2.4,
			Angle: 0.3 * float64(i%5), Elevation: 0.2, Width: 48, Height: 48, Action: 1,
		}
	}
	const distinct = 10 // request(i) repeats with period 10
	start := func(quota units.Bytes) *Cluster {
		cl, err := StartClusterWith(core.NewLocalityScheduler(2*units.Millisecond), cat, 1, quota,
			func(h *Head) { h.FracShare = &fracshare.Config{Slots: 2} })
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}

	roomy := start(64 * units.MB)
	ref := make([][]byte, distinct)
	c := roomy.Connect()
	for i := range ref {
		res, err := c.Render(request(i))
		if err != nil {
			t.Fatal(err)
		}
		ref[i] = res.PNG
	}
	c.Close()
	roomy.Stop()

	tight := start(brick * 3 / 2)
	defer tight.Stop()
	w := tight.Worker(0)
	stop := make(chan struct{})
	var watch sync.WaitGroup
	watch.Add(1)
	go func() { // "never": sampled while the executors run, not only after
		defer watch.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			w.cacheMu.Lock()
			n := len(w.slabs)
			w.cacheMu.Unlock()
			if n > maxFreeSlabs {
				t.Errorf("free list holds %d slabs", n)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	var wg sync.WaitGroup
	for u := 0; u < 3; u++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := tight.Connect()
			defer c.Close()
			for i := u; i < u+40; i++ {
				res, err := c.Render(request(i))
				if err != nil {
					t.Errorf("client %d frame %d: %v", u, i, err)
					return
				}
				if !bytes.Equal(res.PNG, ref[i%distinct]) {
					t.Errorf("client %d frame %d differs from the never-evicting cluster's", u, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	watch.Wait()

	if got := w.Slots(); got != 2 {
		t.Fatalf("worker runs %d slots, want 2", got)
	}
	w.cacheMu.Lock()
	defer w.cacheMu.Unlock()
	st := w.CacheStats()
	if st.Evictions == 0 {
		t.Fatal("the tight worker never evicted: the test exercised nothing")
	}
	if len(w.slabs) == 0 || len(w.slabs) > maxFreeSlabs {
		t.Errorf("free list holds %d slabs after %d evictions, want 1..%d", len(w.slabs), st.Evictions, maxFreeSlabs)
	}
	for id, r := range w.bricks {
		if r.renders != 0 || r.evicted {
			t.Errorf("%v: renders=%d evicted=%v with no task running", id, r.renders, r.evicted)
		}
	}
}

// BenchmarkLoadBrick is the miss path's load alone, on live_cold_sweep's
// brick (half of a 128³ volume, 4.3 MB, in the page cache): into memory
// allocated for it, and into a slab an evicted brick left behind.
func BenchmarkLoadBrick(b *testing.B) {
	g := volume.Generate(volume.Supernova, 128, 128, 128)
	m, err := WriteDataset(b.TempDir(), "nova", g, 2, "supernova")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fresh", func(b *testing.B) {
		b.SetBytes(int64(m.Chunks[0].SizeBytes))
		for i := 0; i < b.N; i++ {
			if _, err := m.LoadBrick(i % 2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recycled", func(b *testing.B) {
		b.SetBytes(int64(m.Chunks[0].SizeBytes))
		warm, err := m.LoadBrick(1)
		if err != nil {
			b.Fatal(err)
		}
		slab := warm.Slab()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			brick, err := m.LoadBrickInto(i%2, slab)
			if err != nil {
				b.Fatal(err)
			}
			slab = brick.Slab()
		}
	})
}

// BenchmarkMissTask is a cache miss's task on live_cold_sweep's shape
// without the cluster around it: half of a 128³ volume loaded into the slab
// the previous brick left, then that brick's first ray-cast at 64², the view
// turning 2π/32 a task. One sub-benchmark per field the workload cycles
// through, each under its preset.
func BenchmarkMissTask(b *testing.B) {
	for _, f := range []struct {
		name, tf string
		field    volume.FieldFunc
	}{
		{"supernova", "supernova", volume.Supernova},
		{"plume", "plume", volume.Plume},
		{"combustion", "combustion", volume.Combustion},
		{"turbulence1", "turbulence", volume.Turbulence(1)},
	} {
		b.Run(f.name, func(b *testing.B) {
			m, err := WriteDataset(b.TempDir(), f.name, volume.Generate(f.field, 128, 128, 128), 2, f.tf)
			if err != nil {
				b.Fatal(err)
			}
			tf := raycast.PresetTF(m.TF)
			opt := raycast.Options{Width: 64, Height: 64, Parallel: true}
			warm, err := m.LoadBrick(1)
			if err != nil {
				b.Fatal(err)
			}
			slab := warm.Slab()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				brick, err := m.LoadBrickInto(i%2, slab)
				if err != nil {
					b.Fatal(err)
				}
				cam := raycast.NewCamera(float64(i)*2*math.Pi/32, 0.3, 2.4)
				img.Put(raycast.RenderBrick(brick, cam, tf, opt).Image)
				slab = brick.Slab()
			}
		})
	}
}
