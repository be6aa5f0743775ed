package compositing

import (
	"sync"

	"vizsched/internal/img"
)

// Concurrent runs direct-send compositing with real goroutines — one per
// participating processor — exchanging pieces over channels. The Algorithm
// implementations in this package move the same data single-threaded (which
// is what their message accounting measures); Concurrent is the form a
// multi-core head node actually executes, and the tests hold the two to
// identical output.
type Concurrent struct {
	// Workers caps the goroutine count; zero uses one per layer.
	Workers int
}

// Name implements Algorithm.
func (c Concurrent) Name() string { return "concurrent-direct-send" }

// Composite implements Algorithm. Each owner goroutine composites its span
// of the image across all layers front-to-back; spans are disjoint, so the
// only synchronization is the final join. The result comes from img.Get and
// shares no pixels with the layers; a caller done with it may img.Put it.
func (c Concurrent) Composite(layers []*img.Image) (*img.Image, Stats) {
	w, h := validate(layers)
	n := len(layers)
	out := img.Get(w, h)
	if n == 1 {
		copy(out.Pix, layers[0].Pix)
		return out, Stats{Rounds: 1}
	}
	workers := c.Workers
	if workers <= 0 || workers > n {
		workers = n
	}
	parts := span{0, w * h}.split(workers)

	var wg sync.WaitGroup
	for _, part := range parts {
		part := part
		if part.size() == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := out.Pix[part.Lo:part.Hi]
			copy(dst, layers[n-1].Pix[part.Lo:part.Hi])
			for i := n - 2; i >= 0; i-- {
				compositePieces(layers[i].Pix[part.Lo:part.Hi], dst)
			}
		}()
	}
	wg.Wait()

	// Each owner pulls every other layer's restriction to its span: across
	// all owners that is (n−1) full images' worth of pixels.
	st := Stats{Rounds: 2, Messages: workers * (n - 1)}
	st.PixelsSent = int64(w*h) * int64(n-1)
	return out, st
}
