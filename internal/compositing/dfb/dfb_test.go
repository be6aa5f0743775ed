package dfb

import (
	"math/rand"
	"sync"
	"testing"

	"vizsched/internal/compositing"
	"vizsched/internal/img"
)

// layer builds a deterministic pseudo-random premultiplied layer.
func layer(w, h int, seed int64) *img.Image {
	rng := rand.New(rand.NewSource(seed))
	m := img.New(w, h)
	for i := range m.Pix {
		a := rng.Float32()
		m.Pix[i] = img.RGBA{R: rng.Float32() * a, G: rng.Float32() * a, B: rng.Float32() * a, A: a}
	}
	return m
}

func layers(w, h, n int, seed int64) []*img.Image {
	ls := make([]*img.Image, n)
	for i := range ls {
		ls[i] = layer(w, h, seed+int64(i))
	}
	return ls
}

func serialRef(ls []*img.Image) *img.Image {
	ref, _ := compositing.Serial{}.Composite(ls)
	return ref
}

func TestTileLayoutCoversFrame(t *testing.T) {
	for _, c := range []struct{ w, h, tile int }{{64, 64, 16}, {100, 70, 32}, {33, 65, 16}, {5, 5, 64}} {
		l := NewLayout(c.w, c.h, c.tile)
		covered := make([]int, c.w*c.h)
		for tl := 0; tl < l.NumTiles(); tl++ {
			x0, y0, x1, y1 := l.Bounds(tl)
			if x0 >= x1 || y0 >= y1 {
				t.Fatalf("%dx%d/%d tile %d empty: %d,%d,%d,%d", c.w, c.h, c.tile, tl, x0, y0, x1, y1)
			}
			for y := y0; y < y1; y++ {
				for x := x0; x < x1; x++ {
					covered[y*c.w+x]++
				}
			}
		}
		for i, n := range covered {
			if n != 1 {
				t.Fatalf("%dx%d/%d pixel %d covered %d times", c.w, c.h, c.tile, i, n)
			}
		}
	}
}

func TestTileOwnerRoundRobin(t *testing.T) {
	l := NewLayout(128, 128, 16) // 64 tiles
	counts := make([]int, 5)
	for tl := 0; tl < l.NumTiles(); tl++ {
		counts[l.Owner(tl, 5)]++
	}
	for n, c := range counts {
		if c == 0 {
			t.Fatalf("node %d owns no tiles", n)
		}
	}
	if l.Owner(7, 5) != 2 {
		t.Fatalf("owner not deterministic round-robin: %d", l.Owner(7, 5))
	}
}

// TestDFBReducerBitIdenticalAnyOrder drives the ranked reducer with many
// random arrival permutations; every one must reproduce Serial exactly —
// MaxDiff == 0, not within-tolerance.
func TestDFBReducerBitIdenticalAnyOrder(t *testing.T) {
	const w, h, n = 48, 40, 7
	ls := layers(w, h, n, 1)
	ref := serialRef(ls)
	layout := NewLayout(w, h, 16)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		out := img.New(w, h)
		red := NewReducer(layout, n, out)
		type item struct{ tile, layer int }
		var order []item
		for tl := 0; tl < layout.NumTiles(); tl++ {
			for i := 0; i < n; i++ {
				order = append(order, item{tl, i})
			}
		}
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for _, it := range order {
			if _, err := red.Add(Fragment{Tile: it.tile, Rank: it.layer, Pix: ExtractTile(layout, ls[it.layer], it.tile)}); err != nil {
				t.Fatal(err)
			}
		}
		if !red.Done() {
			t.Fatal("reducer not done after all fragments")
		}
		if d := img.MaxDiff(ref, out); d != 0 {
			t.Fatalf("trial %d: not bit-identical to serial: MaxDiff=%g", trial, d)
		}
	}
}

// TestDFBReducerUnrankedMatchesDepthSort exercises the live-service mode:
// no ranks, fragments carry depths (with ties) and sequence numbers.
func TestDFBReducerUnrankedMatchesDepthSort(t *testing.T) {
	const w, h, n = 32, 32, 6
	ls := layers(w, h, n, 3)
	depths := []float64{3, 1, 2, 1, 5, 2} // ties exercise the stable Seq tiebreak
	ordered := compositing.ByDepth(ls, depths)
	ref := serialRef(ordered)

	layout := NewLayout(w, h, 16)
	out := img.New(w, h)
	red := NewReducer(layout, n, out)
	rng := rand.New(rand.NewSource(4))
	for tl := 0; tl < layout.NumTiles(); tl++ {
		perm := rng.Perm(n)
		for _, i := range perm {
			if _, err := red.Add(Fragment{Tile: tl, Rank: -1, Depth: depths[i], Seq: i, Pix: ExtractTile(layout, ls[i], tl)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !red.Done() {
		t.Fatal("reducer not done")
	}
	if d := img.MaxDiff(ref, out); d != 0 {
		t.Fatalf("unranked reduce not bit-identical to depth-sorted serial: MaxDiff=%g", d)
	}
}

func TestDFBReducerIgnoresDuplicates(t *testing.T) {
	const w, h, n = 16, 16, 3
	ls := layers(w, h, n, 5)
	ref := serialRef(ls)
	layout := NewLayout(w, h, 16)
	out := img.New(w, h)
	red := NewReducer(layout, n, out)
	for i := 0; i < n; i++ {
		red.Add(Fragment{Tile: 0, Rank: i, Pix: ExtractTile(layout, ls[i], 0)})
		// A retried sender re-pushes the same fragment.
		red.Add(Fragment{Tile: 0, Rank: i, Pix: ExtractTile(layout, ls[i], 0)})
	}
	if !red.Done() {
		t.Fatal("reducer not done")
	}
	if d := img.MaxDiff(ref, out); d != 0 {
		t.Fatalf("duplicates corrupted the reduction: MaxDiff=%g", d)
	}
	if red.Fragments() != n {
		t.Fatalf("duplicates counted: got %d fragments, want %d", red.Fragments(), n)
	}
}

func TestDFBReducerRejectsBadFragments(t *testing.T) {
	layout := NewLayout(32, 32, 16)
	red := NewReducer(layout, 2, img.New(32, 32))
	if _, err := red.Add(Fragment{Tile: 99, Rank: 0}); err == nil {
		t.Error("out-of-range tile accepted")
	}
	if _, err := red.Add(Fragment{Tile: 0, Rank: 0, Pix: make([]img.RGBA, 3)}); err == nil {
		t.Error("wrong-size fragment accepted")
	}
	if _, err := red.Add(Fragment{Tile: 0, Rank: 5, Pix: make([]img.RGBA, 256)}); err == nil {
		t.Error("out-of-range rank accepted")
	}
}

// TestDFBConcurrentTileReduction hammers one reducer from many goroutines —
// the -race stress test for concurrent tile reduction. The result must
// still be bit-identical to Serial.
func TestDFBConcurrentTileReduction(t *testing.T) {
	const w, h, n, senders = 64, 64, 16, 8
	ls := layers(w, h, n, 6)
	ref := serialRef(ls)
	layout := NewLayout(w, h, 16)
	out := img.New(w, h)
	red := NewReducer(layout, n, out)

	// Each sender delivers a disjoint slice of layers for every tile, in
	// its own order: heavy lock contention and maximal out-of-order-ness.
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + s)))
			tiles := rng.Perm(layout.NumTiles())
			for _, tl := range tiles {
				for i := s; i < n; i += senders {
					if _, err := red.Add(Fragment{Tile: tl, Rank: i, Pix: ExtractTile(layout, ls[i], tl)}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if !red.Done() {
		t.Fatal("reducer not done")
	}
	if got := red.TilesFinalized(); got != layout.NumTiles() {
		t.Fatalf("TilesFinalized=%d want %d", got, layout.NumTiles())
	}
	if d := img.MaxDiff(ref, out); d != 0 {
		t.Fatalf("concurrent reduction not bit-identical: MaxDiff=%g", d)
	}
}

// TestDFBAlgorithmMatchesSerial is the drop-in Algorithm's pixel-identity
// guarantee across awkward processor counts, including non-2^a·3^b ones.
func TestDFBAlgorithmMatchesSerial(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 7, 8, 11, 16, 27} {
		ls := layers(40, 36, n, int64(10+n))
		ref := serialRef(ls)
		out, st := (DFB{Tile: 16}).Composite(ls)
		if d := img.MaxDiff(ref, out); d != 0 {
			t.Fatalf("n=%d: dfb not bit-identical to serial: MaxDiff=%g", n, d)
		}
		if st.Rounds != 2 {
			t.Fatalf("n=%d: dfb Rounds=%d, want 2 (push+gather, independent of n)", n, st.Rounds)
		}
		if n > 1 && st.Messages == 0 {
			t.Fatalf("n=%d: no messages accounted", n)
		}
	}
}
