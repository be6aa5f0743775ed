package service

import (
	"fmt"
	"math"
	"testing"

	"vizsched/internal/core"
	"vizsched/internal/img"
	"vizsched/internal/raycast"
	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// sameImage reports the first pixel at which two images differ in any bit,
// or "" (NaN equal to NaN).
func sameImage(want, got *img.Image) string {
	same := func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b) }
	for i, w := range want.Pix {
		g := got.Pix[i]
		if !same(w.R, g.R) || !same(w.G, g.G) || !same(w.B, g.B) || !same(w.A, g.A) {
			return fmt.Sprintf("pixel (%d,%d): %v, want %v", i%want.W, i/want.W, g, w)
		}
	}
	return ""
}

// A cache miss's brick skips and leaps from its first render. On the
// benchmark's brick shapes, WriteDataset → LoadBrick → the first RenderBrick
// has the pixels, bounds and samples of a brick cut in memory (MakeBrick),
// whose first render fetches every sample, and skips as many samples as
// that brick's render once it has macrocells and a leap map — the count
// raycast's tests hold to the reference's samples whose cell is empty
// (checkAgainstReference). A dataset rendered through another preset than
// it was written for gets the same from its brick, whose stored leap map is
// for another threshold and must go unused.
func TestLoadedBrickFirstRenderMatchesInMemory(t *testing.T) {
	shapes := []struct {
		field             string
		dim, slabs, width int
		render            string // the preset the renders use
	}{
		{"supernova", 128, 2, 64, "supernova"},
		{"plume", 48, 3, 128, "plume"},
		{"combustion", 32, 8, 64, "combustion"},
		{"supernova", 48, 3, 128, "plume"},
		{"plume", 32, 8, 64, "combustion"},
	}
	for _, s := range shapes {
		name := fmt.Sprintf("%s%d_as_%s", s.field, s.dim, s.render)
		t.Run(name, func(t *testing.T) {
			g := volume.Generate(volume.FieldByName(s.field), s.dim, s.dim, s.dim)
			m, err := WriteDataset(t.TempDir(), s.field, g, s.slabs, s.field)
			if err != nil {
				t.Fatal(err)
			}
			tf := raycast.PresetTF(s.render)
			opt := raycast.Options{Width: s.width, Height: s.width, Parallel: true}
			var skipped int64
			for v := 0; v < 4; v++ {
				cam := raycast.NewCamera(0.3+float64(v)*math.Pi/2, 0.3, 2.4)
				for i, box := range volume.BrickZ(g.Dims, s.slabs) {
					loaded, err := m.LoadBrick(i)
					if err != nil {
						t.Fatal(err)
					}
					first := raycast.RenderBrick(loaded, cam, tf, opt)
					mem := raycast.MakeBrick(g, box)
					want := raycast.RenderBrick(mem, cam, tf, opt)
					resident := raycast.RenderBrick(mem, cam, tf, opt)
					what := fmt.Sprintf("view %d brick %d", v, i)
					if d := sameImage(want.Image, first.Image); d != "" {
						t.Fatalf("%s: %s", what, d)
					}
					if first.Bounds != want.Bounds || first.Samples != want.Samples {
						t.Fatalf("%s: bounds %v, %d samples; in memory %v, %d", what, first.Bounds, first.Samples, want.Bounds, want.Samples)
					}
					if want.Skipped != 0 || resident.Samples != want.Samples {
						t.Fatalf("%s: the in-memory brick skipped %d on its first render, took %d then %d samples",
							what, want.Skipped, want.Samples, resident.Samples)
					}
					if first.Skipped != resident.Skipped {
						t.Fatalf("%s: the loaded brick's first render skipped %d of %d samples, the resident in-memory brick %d",
							what, first.Skipped, first.Samples, resident.Skipped)
					}
					skipped += first.Skipped
					for _, f := range []*raycast.Fragment{first, want, resident} {
						img.Put(f.Image)
					}
				}
			}
			if skipped == 0 {
				t.Error("no first render skipped a sample: the stored sections did nothing")
			}
		})
	}
}

// A worker that evicts on every load skips empty space all the same: with
// room for one brick and a half and two datasets taking turns, no task hits
// the cache, and the worker's rays still step over what the presets cannot
// see.
func TestColdWorkerSkips(t *testing.T) {
	cat := testCatalog(t, 1)
	brick := cat.Get("plume").Chunks[0].SizeBytes
	cl, err := StartCluster(core.NewLocalityScheduler(2*units.Millisecond), cat, 1, brick*3/2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	c := cl.Connect()
	defer c.Close()
	for i := 0; i < 6; i++ {
		if _, err := c.Render(RenderBody{
			Dataset: []string{"supernova", "plume"}[i%2], Angle: 0.4 * float64(i), Dist: 2.4,
			Elevation: 0.2, Width: 32, Height: 32,
		}); err != nil {
			t.Fatal(err)
		}
	}
	w := cl.Worker(0)
	if st := w.CacheStats(); st.Hits != 0 || st.Misses != 6 {
		t.Fatalf("cache %d hits, %d misses: want every task to miss", st.Hits, st.Misses)
	}
	if samples, skipped := w.RayStats(); samples == 0 || skipped == 0 || skipped >= samples {
		t.Errorf("a cold worker skipped %d of %d samples, want some but not all", skipped, samples)
	}
}
