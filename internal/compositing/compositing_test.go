package compositing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vizsched/internal/img"
)

// randomLayers builds n random premultiplied layers of the given size.
func randomLayers(rng *rand.Rand, n, w, h int) []*img.Image {
	layers := make([]*img.Image, n)
	for i := range layers {
		m := img.New(w, h)
		for p := range m.Pix {
			a := rng.Float32()
			m.Pix[p] = img.RGBA{
				R: rng.Float32() * a,
				G: rng.Float32() * a,
				B: rng.Float32() * a,
				A: a,
			}
		}
		layers[i] = m
	}
	return layers
}

// algorithm is what every compositor in the package offers.
type algorithm interface {
	Name() string
	Composite(layers []*img.Image) (*img.Image, Stats)
}

var algorithms = []algorithm{Serial{}, DirectSend{}, BinarySwap{}, TwoThreeSwap{}}

// Every algorithm must produce the serial reference image, for processor
// counts exercising equal splits, fold-ins, and 2-3 mixes.
func TestAllAlgorithmsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 16, 24, 27} {
		layers := randomLayers(rng, n, 9, 7)
		want, _ := Serial{}.Composite(layers)
		for _, alg := range algorithms[1:] {
			got, _ := alg.Composite(layers)
			if d := img.MaxDiff(want, got); d > 1e-5 {
				t.Errorf("%s with n=%d differs from serial by %v", alg.Name(), n, d)
			}
		}
	}
}

// Compositing must not mutate its inputs: the service reuses node layers.
func TestAlgorithmsDoNotMutateInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	layers := randomLayers(rng, 5, 6, 6)
	backup := make([]*img.Image, len(layers))
	for i, l := range layers {
		backup[i] = l.Clone()
	}
	for _, alg := range algorithms {
		alg.Composite(layers)
		for i := range layers {
			if img.MaxDiff(layers[i], backup[i]) != 0 {
				t.Fatalf("%s mutated input layer %d", alg.Name(), i)
			}
		}
	}
}

func TestSerialSingleLayerIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	layers := randomLayers(rng, 1, 4, 4)
	for _, alg := range algorithms {
		got, _ := alg.Composite(layers)
		if img.MaxDiff(got, layers[0]) > 1e-6 {
			t.Errorf("%s single-layer composite is not identity", alg.Name())
		}
	}
}

func TestEmptyLayersPanics(t *testing.T) {
	for _, alg := range algorithms {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted zero layers", alg.Name())
				}
			}()
			alg.Composite(nil)
		}()
	}
}

func TestMismatchedSizesPanic(t *testing.T) {
	layers := []*img.Image{img.New(4, 4), img.New(5, 4)}
	defer func() {
		if recover() == nil {
			t.Error("mismatched sizes accepted")
		}
	}()
	Serial{}.Composite(layers)
}

func TestBinarySwapStats(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	layers := randomLayers(rng, 8, 16, 16)
	_, st := BinarySwap{}.Composite(layers)
	// 3 swap rounds + 1 gather, no folds.
	if st.Rounds != 4 {
		t.Errorf("rounds = %d, want 4", st.Rounds)
	}
	// Each swap round: 8 procs each send 1 piece (k-1=1 per keeper, 4 keepers
	// per... pairwise: 8 messages per round? Each pair exchanges 2 pieces → 8
	// messages per round across 4 pairs, 3 rounds = 24, plus 7 gather.
	if st.Messages != 24+7 {
		t.Errorf("messages = %d, want 31", st.Messages)
	}
	// Pixel conservation: each swap round moves exactly half the image per
	// pair... total swap pixels = rounds * W*H * (k-1)/k summed; just sanity
	// check it is positive and the gather moved W*H*(n-1)/n pixels.
	if st.PixelsSent <= 0 {
		t.Error("no pixels moved")
	}
	if st.BytesSent() != st.PixelsSent*16 {
		t.Error("BytesSent inconsistent")
	}
}

func TestTwoThreeSwapHandlesTriples(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	layers := randomLayers(rng, 9, 12, 12)
	_, st := TwoThreeSwap{}.Composite(layers)
	// 9 = 3*3: two ternary rounds + gather, no folds.
	if st.Rounds != 3 {
		t.Errorf("rounds = %d, want 3", st.Rounds)
	}
	// Binary swap on 9 layers folds one in first (one extra round).
	_, bst := BinarySwap{}.Composite(layers)
	if bst.Rounds != 1+3+1 {
		t.Errorf("binary-swap rounds on 9 layers = %d, want 5", bst.Rounds)
	}
}

// TestSwapFoldInSingleRound pins the parallel fold-in pre-step on awkward
// (non-2^a·3^b) processor counts: folding costs exactly ONE extra round no
// matter how many processors fold, and the excess shows up only in the
// message count. The serial fold this replaced cost one round per excess
// processor (N=100 would have paid 36 fold rounds; it now pays 1).
func TestSwapFoldInSingleRound(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cases := []struct {
		n                   int
		binRounds, ttRounds int
		binExcess, ttExcess int
	}{
		// binary target / 2-3 target: 5→4/4, 7→4/6, 11→8/9, 100→64/96.
		{5, 4, 4, 1, 1},
		{7, 4, 4, 3, 1},
		{11, 5, 4, 3, 2},
		{100, 8, 8, 36, 4},
	}
	for _, c := range cases {
		layers := randomLayers(rng, c.n, 8, 6)
		want, _ := Serial{}.Composite(layers)

		got, st := BinarySwap{}.Composite(layers)
		if d := img.MaxDiff(want, got); d > 1e-5 {
			t.Errorf("binary-swap n=%d differs from serial by %v", c.n, d)
		}
		if st.Rounds != c.binRounds {
			t.Errorf("binary-swap n=%d rounds = %d, want %d", c.n, st.Rounds, c.binRounds)
		}

		got, st2 := TwoThreeSwap{}.Composite(layers)
		if d := img.MaxDiff(want, got); d > 1e-5 {
			t.Errorf("2-3-swap n=%d differs from serial by %v", c.n, d)
		}
		if st2.Rounds != c.ttRounds {
			t.Errorf("2-3-swap n=%d rounds = %d, want %d", c.n, st2.Rounds, c.ttRounds)
		}

		// The fold messages are full-image sends, one per excess processor;
		// they dominate PixelsSent differences, so pin them via the excess.
		full := int64(8 * 6)
		if min := full * int64(c.binExcess); st.PixelsSent < min {
			t.Errorf("binary-swap n=%d moved %d pixels, folds alone need %d", c.n, st.PixelsSent, min)
		}
		if min := full * int64(c.ttExcess); st2.PixelsSent < min {
			t.Errorf("2-3-swap n=%d moved %d pixels, folds alone need %d", c.n, st2.PixelsSent, min)
		}
	}
}

// TestSwapFoldInMessageCounts pins exact message totals for the fold cases
// small enough to count by hand.
func TestSwapFoldInMessageCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	// binary n=5: 1 fold + 2 rounds×4 msgs + 3 gather = 12.
	layers := randomLayers(rng, 5, 4, 4)
	if _, st := (BinarySwap{}).Composite(layers); st.Messages != 12 {
		t.Errorf("binary-swap n=5 messages = %d, want 12", st.Messages)
	}
	// 2-3 n=7: target 6, 1 fold + (k=2: 6) + (k=3: 12) + 5 gather = 24.
	layers = randomLayers(rng, 7, 4, 4)
	if _, st := (TwoThreeSwap{}).Composite(layers); st.Messages != 24 {
		t.Errorf("2-3-swap n=7 messages = %d, want 24", st.Messages)
	}
}

// TestCompositingRoundHelpers keeps the closed-form round counts (used by
// the simulator's cost model) in lock-step with what the algorithms do.
func TestCompositingRoundHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for n := 1; n <= 40; n++ {
		layers := randomLayers(rng, n, 4, 3)
		if _, st := (BinarySwap{}).Composite(layers); st.Rounds != BinarySwapRounds(n) {
			t.Errorf("BinarySwapRounds(%d) = %d, actual %d", n, BinarySwapRounds(n), st.Rounds)
		}
		if _, st := (TwoThreeSwap{}).Composite(layers); st.Rounds != TwoThreeSwapRounds(n) {
			t.Errorf("TwoThreeSwapRounds(%d) = %d, actual %d", n, TwoThreeSwapRounds(n), st.Rounds)
		}
		if _, st := (DirectSend{}).Composite(layers); st.Rounds != DirectSendRounds(n) {
			t.Errorf("DirectSendRounds(%d) = %d, actual %d", n, DirectSendRounds(n), st.Rounds)
		}
	}
}

func TestDirectSendStats(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	layers := randomLayers(rng, 4, 10, 10)
	_, st := DirectSend{}.Composite(layers)
	if st.Rounds != 2 {
		t.Errorf("rounds = %d, want 2", st.Rounds)
	}
	// Exchange: each of 4 owners receives 3 pieces = 12 messages; gather: 3.
	if st.Messages != 15 {
		t.Errorf("messages = %d, want 15", st.Messages)
	}
	// Exchange moves (n-1)/n of the image... n-1 full images' worth of
	// distinct pixels = 3*100; gather moves 3/4*100 = 75.
	if st.PixelsSent != 300+75 {
		t.Errorf("pixels = %d, want 375", st.PixelsSent)
	}
}

// Property: for random layer counts and sizes, swap algorithms agree with
// serial compositing.
func TestQuickSwapMatchesSerial(t *testing.T) {
	f := func(seed int64, rawN, rawW, rawH uint8) bool {
		n := int(rawN%11) + 1
		w := int(rawW%8) + 2
		h := int(rawH%8) + 2
		rng := rand.New(rand.NewSource(seed))
		layers := randomLayers(rng, n, w, h)
		want, _ := Serial{}.Composite(layers)
		for _, alg := range algorithms[1:] {
			got, _ := alg.Composite(layers)
			if img.MaxDiff(want, got) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestGroupSizesFor(t *testing.T) {
	cases := []struct {
		n  int
		ok bool
	}{
		{1, true}, {2, true}, {3, true}, {4, true}, {6, true}, {8, true},
		{9, true}, {12, true}, {5, false}, {7, false}, {10, false}, {25, false},
	}
	for _, c := range cases {
		ks, ok := groupSizesFor(c.n)
		if ok != c.ok {
			t.Errorf("groupSizesFor(%d) ok = %v, want %v", c.n, ok, c.ok)
			continue
		}
		if ok {
			prod := 1
			for _, k := range ks {
				prod *= k
			}
			if prod != c.n {
				t.Errorf("groupSizesFor(%d) product = %d", c.n, prod)
			}
		}
	}
}

func TestLargest23LE(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 3, 5: 4, 7: 6, 10: 9, 11: 9, 13: 12, 17: 16, 100: 96, 64: 64}
	for n, want := range cases {
		if got := largest23LE(n); got != want {
			t.Errorf("largest23LE(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestSpanSplitCovers(t *testing.T) {
	s := span{10, 47}
	for k := 1; k <= 7; k++ {
		parts := s.split(k)
		prev := s.Lo
		for _, p := range parts {
			if p.Lo != prev {
				t.Fatalf("k=%d: gap at %d", k, p.Lo)
			}
			prev = p.Hi
		}
		if prev != s.Hi {
			t.Fatalf("k=%d: ends at %d", k, prev)
		}
	}
}

func TestByDepth(t *testing.T) {
	a, b, c := img.New(1, 1), img.New(1, 1), img.New(1, 1)
	got := ByDepth([]*img.Image{a, b, c}, []float64{3, 1, 2})
	if got[0] != b || got[1] != c || got[2] != a {
		t.Error("ByDepth ordered wrong")
	}
}

func TestByDepthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	ByDepth([]*img.Image{img.New(1, 1)}, nil)
}

// TestCompositingEquivalenceRandomDepths runs every algorithm over layers
// arriving with randomized depths, ByDepth ordering them first as the
// service does; each must match serial within float tolerance.
func TestCompositingEquivalenceRandomDepths(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{1, 2, 3, 5, 7, 9, 11, 16, 27} {
		layers := randomLayers(rng, n, 24, 20)
		depths := make([]float64, n)
		for i := range depths {
			depths[i] = rng.Float64() * 10
		}
		if n > 2 {
			depths[1] = depths[0] // exercise the stable tie-break
		}
		ordered := ByDepth(layers, depths)
		want, _ := Serial{}.Composite(ordered)
		for _, alg := range algorithms[1:] {
			got, _ := alg.Composite(ordered)
			if d := img.MaxDiff(want, got); d > 1e-5 {
				t.Errorf("%s with n=%d differs from serial by %v", alg.Name(), n, d)
			}
		}
	}
}

// TestCompositingEquivalenceDroppedProc drops one processor's layer — the
// fault the service sees when a node dies mid-frame and the job re-resolves
// over the survivors. Every algorithm must agree on the surviving set, at
// every drop position (front, middle, back).
func TestCompositingEquivalenceDroppedProc(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{3, 8, 12} {
		layers := randomLayers(rng, n, 16, 12)
		for _, drop := range []int{0, n / 2, n - 1} {
			survivors := make([]*img.Image, 0, n-1)
			survivors = append(survivors, layers[:drop]...)
			survivors = append(survivors, layers[drop+1:]...)
			want, _ := Serial{}.Composite(survivors)
			for _, alg := range algorithms[1:] {
				got, _ := alg.Composite(survivors)
				if d := img.MaxDiff(want, got); d > 1e-5 {
					t.Errorf("%s n=%d drop=%d differs by %v", alg.Name(), n, drop, d)
				}
			}
		}
	}
}

func BenchmarkCompositing64Layers(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	layers := randomLayers(rng, 64, 64, 64)
	for _, alg := range algorithms {
		b.Run(alg.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				alg.Composite(layers)
			}
		})
	}
}

func TestConcurrentMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 2, 5, 9, 16} {
		layers := randomLayers(rng, n, 11, 7)
		want, _ := Serial{}.Composite(layers)
		for _, workers := range []int{0, 1, 3, 8} {
			got, _ := Concurrent{Workers: workers}.Composite(layers)
			if d := img.MaxDiff(want, got); d > 1e-5 {
				t.Errorf("concurrent(workers=%d, n=%d) differs by %v", workers, n, d)
			}
		}
	}
}

func TestConcurrentDoesNotMutateInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	layers := randomLayers(rng, 6, 8, 8)
	backup := make([]*img.Image, len(layers))
	for i, l := range layers {
		backup[i] = l.Clone()
	}
	Concurrent{}.Composite(layers)
	for i := range layers {
		if img.MaxDiff(layers[i], backup[i]) != 0 {
			t.Fatalf("concurrent mutated input %d", i)
		}
	}
}

// Run with -race in CI: disjoint spans mean no data races by construction;
// this test makes the race detector check that claim.
func TestConcurrentUnderRace(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	layers := randomLayers(rng, 12, 32, 32)
	for i := 0; i < 4; i++ {
		Concurrent{Workers: 6}.Composite(layers)
	}
}

// randomRectLayers places n layers in a w×h frame at random: whole-frame,
// interior, pushed against an edge, one pixel, and empty ones, overlapping
// as they fall. It returns them with the full-frame images — transparent
// outside each rectangle — that they stand for.
func randomRectLayers(rng *rand.Rand, n, w, h int) ([]Layer, []*img.Image) {
	layers := make([]Layer, n)
	full := make([]*img.Image, n)
	for i := range layers {
		var l Layer
		switch rng.Intn(5) {
		case 0:
			l.Image = &img.Image{} // an off-screen brick
		case 1:
			l.Image = img.New(w, h)
		case 2: // clipped by the frame's far corner
			lw, lh := 1+rng.Intn(w), 1+rng.Intn(h)
			l = Layer{Image: img.New(lw, lh), X0: w - lw, Y0: h - lh}
		default:
			lw, lh := 1+rng.Intn(w), 1+rng.Intn(h)
			l = Layer{Image: img.New(lw, lh), X0: rng.Intn(w - lw + 1), Y0: rng.Intn(h - lh + 1)}
		}
		full[i] = img.New(w, h)
		for p := range l.Image.Pix {
			px := img.RGBA{}
			if rng.Intn(4) > 0 { // fragments are transparent in places
				a := rng.Float32()
				px = img.RGBA{R: rng.Float32() * a, G: rng.Float32() * a, B: rng.Float32() * a, A: a}
			}
			l.Image.Pix[p] = px
			full[i].Set(l.X0+p%l.Image.W, l.Y0+p/l.Image.W, px)
		}
		layers[i] = l
	}
	return layers, full
}

// samePixels reports whether two images are equal bit for bit.
func samePixels(a, b *img.Image) bool {
	if a.W != b.W || a.H != b.H {
		return false
	}
	for i, p := range a.Pix {
		q := b.Pix[i]
		if math.Float32bits(p.R) != math.Float32bits(q.R) || math.Float32bits(p.G) != math.Float32bits(q.G) ||
			math.Float32bits(p.B) != math.Float32bits(q.B) || math.Float32bits(p.A) != math.Float32bits(q.A) {
			return false
		}
	}
	return true
}

// Compositing rectangles is compositing the full-frame layers they stand
// for, bit for bit: 1–9 layers, every band count, frames down to one row.
func TestCompositingRectLayersMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for round := 0; round < 40; round++ {
		w, h := 1+rng.Intn(24), 1+rng.Intn(16)
		for n := 1; n <= 9; n++ {
			layers, full := randomRectLayers(rng, n, w, h)
			want, _ := Serial{}.Composite(full)
			for _, workers := range []int{0, 1, 3, 8} {
				got := Concurrent{Workers: workers}.CompositeLayers(w, h, layers)
				if !samePixels(want, got) {
					t.Fatalf("%dx%d, %d layers, %d workers: differs from serial by %v", w, h, n, workers, img.MaxDiff(want, got))
				}
				img.Put(got)
			}
		}
	}
}

// Whole-frame layers through Composite give Serial's bits too, and no
// layers at all — every brick off-screen — a transparent frame.
func TestCompositingConcurrentBitIdenticalToSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, n := range []int{1, 2, 3, 8, 9} {
		layers := randomLayers(rng, n, 13, 9)
		want, _ := Serial{}.Composite(layers)
		for _, workers := range []int{0, 1, 4} {
			if got, _ := (Concurrent{Workers: workers}).Composite(layers); !samePixels(want, got) {
				t.Errorf("n=%d workers=%d: not bit-identical to serial", n, workers)
			}
		}
	}
	if got := (Concurrent{}).CompositeLayers(7, 5, nil); !samePixels(img.New(7, 5), got) {
		t.Error("no layers did not give a transparent frame")
	}
}

func TestCompositingLayerOutsideFramePanics(t *testing.T) {
	for _, l := range []Layer{
		{Image: img.New(4, 4), X0: -1},
		{Image: img.New(4, 4), Y0: 5},
		{Image: img.New(9, 2)},
		{Image: img.New(2, 2), X0: math.MaxInt - 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a %dx%d layer at (%d,%d) accepted into an 8x8 frame", l.Image.W, l.Image.H, l.X0, l.Y0)
				}
			}()
			Concurrent{}.CompositeLayers(8, 8, []Layer{l})
		}()
	}
}
