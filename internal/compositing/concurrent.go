package compositing

import (
	"fmt"
	"runtime"
	"sync"

	"vizsched/internal/img"
)

// Layer is an image placed in a frame: the image's pixel (0,0) sits at the
// frame's (X0,Y0). A sort-last fragment touches only the part of the screen
// its brick projects to, and everything outside a layer's image is, by
// definition, transparent.
type Layer struct {
	Image  *img.Image
	X0, Y0 int
}

// Concurrent composites on the goroutines of one machine — the form a
// multi-core head node actually executes. Each goroutine owns a band of the
// frame's rows and composites it across all layers; the Algorithm
// implementations in this package move the same data single-threaded over
// modelled processors (which is what their message accounting measures),
// and the tests hold the two to identical output.
type Concurrent struct {
	// Workers caps the goroutine count; zero uses one per CPU.
	Workers int
}

// Name implements Algorithm.
func (c Concurrent) Name() string { return "concurrent-direct-send" }

// bands is how many row bands a frame of h rows is cut into.
func (c Concurrent) bands(h int) int {
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, h))
}

// Composite implements Algorithm: CompositeLayers with every layer the size
// of the frame.
func (c Concurrent) Composite(layers []*img.Image) (*img.Image, Stats) {
	w, h := validate(layers)
	placed := make([]Layer, len(layers))
	for i, l := range layers {
		placed[i] = Layer{Image: l}
	}
	st := Stats{Rounds: 1}
	if n := len(layers); n > 1 {
		// Each band's owner pulls every other layer's restriction to its
		// rows: across all owners that is (n−1) full images' worth of pixels.
		st = Stats{Rounds: 2, Messages: c.bands(h) * (n - 1), PixelsSent: int64(w*h) * int64(n-1)}
	}
	return c.CompositeLayers(w, h, placed), st
}

// CompositeLayers merges layers, given front to back, into a w×h frame. A
// layer may cover any rectangle inside the frame, or nothing (a 0×0 image);
// no layers at all is a transparent frame. Within its rows a band visits the
// layers back to front and touches only the pixels each covers, which is
// exact: a pixel no layer covers stays transparent black, transparent black
// Over anything is that thing, and anything Over transparent black is itself
// — float32 for float32 what compositing full-frame layers, transparent
// where these have no pixels, would give. Bands are disjoint, so the only
// synchronization is the final join. The result comes from img.Get and
// shares no pixels with the layers; a caller done with it may img.Put it.
func (c Concurrent) CompositeLayers(w, h int, layers []Layer) *img.Image {
	for i, l := range layers {
		m := l.Image
		if l.X0 < 0 || l.Y0 < 0 || m.W > w-l.X0 || m.H > h-l.Y0 {
			panic(fmt.Sprintf("compositing: layer %d is %dx%d at (%d,%d), outside the %dx%d frame", i, m.W, m.H, l.X0, l.Y0, w, h))
		}
	}
	out := img.Get(w, h)
	bands := c.bands(h)
	if bands == 1 {
		compositeBand(out, layers, 0, h)
		return out
	}
	var wg sync.WaitGroup
	for b := 0; b < bands; b++ {
		y0, y1 := h*b/bands, h*(b+1)/bands
		wg.Add(1)
		go func() {
			defer wg.Done()
			compositeBand(out, layers, y0, y1)
		}()
	}
	wg.Wait()
	return out
}

// compositeBand composites rows y0..y1-1 of the frame. out is transparent
// black there on entry.
func compositeBand(out *img.Image, layers []Layer, y0, y1 int) {
	for i := len(layers) - 1; i >= 0; i-- {
		l, m := layers[i], layers[i].Image
		lo, hi := max(y0, l.Y0), min(y1, l.Y0+m.H)
		if lo >= hi {
			continue
		}
		// A layer as wide as the frame is contiguous in both images: its
		// rows in the band are one run.
		runs, n := hi-lo, m.W
		if m.W == out.W {
			runs, n = 1, (hi-lo)*m.W
		}
		for r := 0; r < runs; r++ {
			src := m.Pix[(lo-l.Y0+r)*m.W:][:n]
			dst := out.Pix[(lo+r)*out.W+l.X0:][:n]
			if i == len(layers)-1 {
				copy(dst, src) // nothing is behind the backmost layer
			} else {
				compositePieces(src, dst)
			}
		}
	}
}
