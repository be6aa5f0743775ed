package raycast

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"vizsched/internal/volume"
)

// A camera so far away that one march step is lost in the rounding of the
// ray parameter (step < ulp(t)) used to leave `t += step` where it was and
// the march loop spinning for good — on a worker, a node parked by one
// request with a finite Dist. Every distance here must return; each render
// runs under a watchdog because the failure is a hang.
func TestFarCameraTerminates(t *testing.T) {
	g := volume.Generate(volume.Supernova, 16, 16, 16)
	b := MakeBrick(g, g.Bounds())
	tf := PresetTF("supernova")
	dists := []float64{1e15}
	for k := 20; k <= 62; k++ {
		for _, m := range []float64{1, 1.37, 1.9} {
			dists = append(dists, m*math.Ldexp(1, k))
		}
	}
	// An odd width puts a pixel centre on the axis, whose ray meets the box
	// however far the eye is.
	for _, width := range []int{127, 128, 63} {
		for _, mode := range []Mode{ModeComposite, ModeMIP, ModeIso} {
			for _, dist := range dists {
				cam := NewCamera(0.6, 0.3, dist)
				done := make(chan struct{})
				go func() {
					defer close(done)
					RenderBrick(b, cam, tf, Options{Width: width, Height: width, Mode: mode})
				}()
				select {
				case <-done:
				case <-time.After(20 * time.Second):
					t.Fatalf("Dist=%g (%dx%d, mode %d): the render did not return", dist, width, width, mode)
				}
			}
		}
	}
}

// Options.Yield is called once per scanline of the brick's rectangle, from
// whichever band renders it, and changes nothing about the fragment.
func TestBackgroundRenderBitIdentical(t *testing.T) {
	g := volume.Generate(volume.Supernova, 24, 24, 24)
	tf := PresetTF("supernova")
	cam := NewCamera(0.6, 0.3, 2.4)
	for _, parallel := range []bool{false, true} {
		for _, mode := range []Mode{ModeComposite, ModeMIP, ModeIso} {
			t.Run(fmt.Sprintf("parallel=%v/mode=%d", parallel, mode), func(t *testing.T) {
				opt := Options{Width: 40, Height: 36, Mode: mode, Parallel: parallel}
				// Each brick twice over, one copy for either side: the second
				// pass marches with macrocells, as a resident brick does.
				for _, box := range volume.BrickZ(g.Dims, 2) {
					a, b := MakeBrick(g, box), MakeBrick(g, box)
					for pass := 0; pass < 2; pass++ {
						plain := RenderBrick(a, cam, tf, opt)
						var calls atomic.Int64
						opt := opt
						opt.Yield = func() { calls.Add(1) }
						yielding := RenderBrick(b, cam, tf, opt)
						if diff := firstBitDiff(plain.Image, yielding.Image); diff != "" {
							t.Fatalf("pixels moved under Yield: %s", diff)
						}
						if plain.Bounds != yielding.Bounds || plain.Samples != yielding.Samples ||
							plain.Skipped != yielding.Skipped || plain.Depth != yielding.Depth {
							t.Fatalf("fragment facts moved under Yield: %+v vs %+v", plain, yielding)
						}
						lo, hi := b.WorldBounds()
						v := cam.view(float64(opt.Width) / float64(opt.Height))
						rect := v.project(lo, hi, opt.Width, opt.Height)
						if rect.Empty() {
							t.Fatal("the brick is off screen: the test exercised nothing")
						}
						if got, want := calls.Load(), int64(rect.Dy()); got != want {
							t.Fatalf("Yield called %d times, want once for each of the rectangle's %d scanlines", got, want)
						}
					}
				}
			})
		}
	}
}
