package dfb

import (
	"fmt"

	"vizsched/internal/compositing"
	"vizsched/internal/img"
)

// DFB is the distributed framebuffer as a drop-in compositing.Algorithm:
// layer i plays renderer node i, tiles are owned round-robin, and fragments
// are delivered in a deliberately scrambled (but deterministic) order to
// exercise the out-of-order reduction path. Output is bit-identical to
// Serial.
type DFB struct {
	// Tile is the tile edge in pixels; 0 selects DefaultTileSize.
	Tile int
}

// Name implements compositing.Algorithm.
func (DFB) Name() string { return "dfb" }

// Composite implements compositing.Algorithm.
func (d DFB) Composite(layers []*img.Image) (*img.Image, compositing.Stats) {
	if len(layers) == 0 {
		panic("dfb: no layers")
	}
	w, h := layers[0].W, layers[0].H
	for i, l := range layers {
		if l.W != w || l.H != h {
			panic(fmt.Sprintf("dfb: layer %d is %dx%d, want %dx%d", i, l.W, l.H, w, h))
		}
	}
	n := len(layers)
	layout := NewLayout(w, h, d.Tile)
	out := img.New(w, h)
	red := NewReducer(layout, n, out)

	var st compositing.Stats
	// One asynchronous push step plus the gather of finalized tiles — never
	// a function of n, which is the whole point.
	st.Rounds = 2
	for t := 0; t < layout.NumTiles(); t++ {
		owner := layout.Owner(t, n)
		x0, y0, x1, y1 := layout.Bounds(t)
		tilePix := int64((x1 - x0) * (y1 - y0))
		for j := 0; j < n; j++ {
			// Scrambled arrival order: start each tile's deliveries at a
			// different layer so the reducer's suffix buffering is exercised
			// on every run, deterministically.
			i := (t + j) % n
			fin, err := red.Add(Fragment{Tile: t, Rank: i, Depth: float64(i), Seq: i, Pix: ExtractTile(layout, layers[i], t)})
			if err != nil {
				panic(err)
			}
			if i != owner {
				st.Messages++
				st.PixelsSent += tilePix
			}
			if fin && owner != 0 {
				// Finalized tile ships to the display (rank 0).
				st.Messages++
				st.PixelsSent += tilePix
			}
		}
	}
	if !red.Done() {
		panic("dfb: reduction incomplete")
	}
	return out, st
}
