// Package compositing implements the sort-last image compositing algorithms
// the paper's rendering service relies on: serial over (the correctness
// reference), direct send, binary swap (Ma et al. [12]), and 2-3 swap
// (Yu, Wang & Ma [13]), which the paper's system uses.
//
// All algorithms take per-node full-viewport layers in *front-to-back* depth
// order (the order the head node derives from brick depths) and produce the
// same final image; they differ in how the pixel work and communication are
// distributed, which is what the Stats they return measure.
//
// The swap algorithms run in synchronous rounds over explicit "processor"
// states rather than goroutines: the data movement and message accounting
// are the real algorithm; transport is the service layer's concern.
//
// Faithfulness note: our 2-3 swap uses a uniform group size (2 or 3) per
// round, which is exact for any processor count of the form 2^a·3^b. Other
// counts are first reduced by a single parallel fold-in pre-round: the
// processors are partitioned into the largest feasible 2^a·3^b count of
// contiguous depth runs and each run composites internally, concurrently.
// The original paper instead mixes group sizes within a round with
// multi-piece sends; the fold-in variant costs one extra round (never a
// serial chain of them), keeps every processor busy after the first
// exchange, and composites identically.
package compositing

import (
	"cmp"
	"fmt"
	"slices"

	"vizsched/internal/img"
)

// Stats describes the communication an algorithm performed.
type Stats struct {
	// Rounds is the number of synchronous exchange steps, including the
	// final gather.
	Rounds int
	// Messages is the total point-to-point message count.
	Messages int
	// PixelsSent is the total number of pixels moved between processors.
	PixelsSent int64
}

// BytesSent returns the wire volume assuming 16-byte RGBA pixels.
func (s Stats) BytesSent() int64 { return s.PixelsSent * 16 }

// validate panics on degenerate input; compositing zero layers is always a
// pipeline bug upstream.
func validate(layers []*img.Image) (w, h int) {
	if len(layers) == 0 {
		panic("compositing: no layers")
	}
	w, h = layers[0].W, layers[0].H
	for i, l := range layers {
		if l.W != w || l.H != h {
			panic(fmt.Sprintf("compositing: layer %d is %dx%d, want %dx%d", i, l.W, l.H, w, h))
		}
	}
	return w, h
}

// Serial composites on a single processor — the reference every other
// algorithm must match, and the degenerate case for a one-node render group.
type Serial struct{}

// Name identifies the algorithm in experiment output.
func (Serial) Name() string { return "serial" }

// Composite merges layers (front-to-back) into the final image.
func (Serial) Composite(layers []*img.Image) (*img.Image, Stats) {
	validate(layers)
	// Everyone ships their full layer to the root: n-1 messages, then the
	// root composites back-to-front.
	acc := layers[len(layers)-1].Clone()
	for i := len(layers) - 2; i >= 0; i-- {
		acc.CompositeOver(layers[i])
	}
	n := len(layers)
	return acc, Stats{
		Rounds:     1,
		Messages:   n - 1,
		PixelsSent: int64(n-1) * int64(acc.W) * int64(acc.H),
	}
}

// span is a contiguous range of flattened pixel indices [Lo, Hi).
type span struct{ Lo, Hi int }

func (s span) size() int { return s.Hi - s.Lo }

// split divides the span into k contiguous near-equal parts.
func (s span) split(k int) []span {
	parts := make([]span, k)
	n := s.size()
	for i := 0; i < k; i++ {
		parts[i] = span{
			Lo: s.Lo + n*i/k,
			Hi: s.Lo + n*(i+1)/k,
		}
	}
	return parts
}

// proc is one participant in a swap exchange. Its pixels cover exactly its
// span and hold the eager composite of a contiguous run of original layers.
type proc struct {
	rank int
	sp   span
	pix  []img.RGBA
}

// compositePieces merges same-span pixel runs in front-to-back order.
func compositePieces(front, back []img.RGBA) {
	for i := range back {
		back[i] = front[i].Over(back[i])
	}
}

// DirectSend partitions the image into one span per processor; everyone
// sends each owner its piece, owners composite in depth order, and the root
// gathers. Simple, but every processor talks to every other.
type DirectSend struct{}

// Name identifies the algorithm in experiment output.
func (DirectSend) Name() string { return "direct-send" }

// Composite merges layers (front-to-back) into the final image.
func (DirectSend) Composite(layers []*img.Image) (*img.Image, Stats) {
	w, h := validate(layers)
	n := len(layers)
	full := span{0, w * h}
	out := img.New(w, h)
	if n == 1 {
		copy(out.Pix, layers[0].Pix)
		return out, Stats{Rounds: 1}
	}
	parts := full.split(n)
	var st Stats
	st.Rounds = 2 // exchange + gather
	for owner, part := range parts {
		// Owner composites every layer's restriction to its part,
		// front-to-back. Each non-owner contributed one message.
		dst := out.Pix[part.Lo:part.Hi]
		copy(dst, layers[n-1].Pix[part.Lo:part.Hi])
		for i := n - 2; i >= 0; i-- {
			compositePieces(layers[i].Pix[part.Lo:part.Hi], dst)
		}
		st.Messages += n - 1
		st.PixelsSent += int64(part.size()) * int64(n-1)
		if owner != 0 {
			// Gather to root.
			st.Messages++
			st.PixelsSent += int64(part.size())
		}
	}
	return out, st
}

// groupSizesFor returns the uniform per-round group size sequence for a
// 2^a·3^b processor count, and ok=false otherwise.
func groupSizesFor(n int) (ks []int, ok bool) {
	for n%2 == 0 {
		ks = append(ks, 2)
		n /= 2
	}
	for n%3 == 0 {
		ks = append(ks, 3)
		n /= 3
	}
	return ks, n == 1
}

// largest23LE returns the largest 2^a·3^b value ≤ n (n ≥ 1).
func largest23LE(n int) int {
	best := 1
	for p2 := 1; p2 <= n; p2 *= 2 {
		for v := p2; v <= n; v *= 3 {
			if v > best {
				best = v
			}
		}
	}
	return best
}

// swap is the shared engine behind BinarySwap and TwoThreeSwap. radixOnly=2
// restricts rounds to pairs (binary swap); 0 allows 2s and 3s.
func swap(layers []*img.Image, radixOnly int) (*img.Image, Stats) {
	w, h := validate(layers)
	var st Stats
	full := span{0, w * h}

	// Seed processor states, front-to-back.
	procs := make([]*proc, len(layers))
	for i, l := range layers {
		pix := make([]img.RGBA, full.size())
		copy(pix, l.Pix)
		procs[i] = &proc{rank: i, sp: full, pix: pix}
	}

	// Fold excess processors into depth-adjacent neighbors until the count
	// supports uniform rounds. The processors are partitioned into `target`
	// contiguous depth runs and every run composites internally at the same
	// time, so the pre-step costs exactly one round no matter how many
	// processors fold — the excess determines only the message count.
	target := len(procs)
	if radixOnly == 2 {
		target = 1
		for target*2 <= len(procs) {
			target *= 2
		}
	} else {
		target = largest23LE(len(procs))
	}
	if target < len(procs) {
		st.Rounds++
		runs := span{0, len(procs)}.split(target)
		folded := make([]*proc, target)
		for i, run := range runs {
			members := procs[run.Lo:run.Hi]
			// The run's front-to-back composite lands in the backmost
			// member's buffer; the survivor keeps the front member's rank so
			// rank 0 (the gather root) always outlives the fold.
			keep := members[len(members)-1]
			for m := len(members) - 2; m >= 0; m-- {
				compositePieces(members[m].pix, keep.pix)
				st.Messages++
				st.PixelsSent += int64(full.size())
			}
			keep.rank = members[0].rank
			folded[i] = keep
		}
		procs = folded
	}

	ks, ok := groupSizesFor(len(procs))
	if !ok {
		panic("compositing: internal error: fold-in left a bad processor count")
	}

	for _, k := range ks {
		st.Rounds++
		groups := len(procs) / k
		next := make([]*proc, len(procs))
		for g := 0; g < groups; g++ {
			members := procs[g*k : (g+1)*k]
			parts := members[0].sp.split(k)
			for j, part := range parts {
				keeper := members[j]
				rel := span{part.Lo - keeper.sp.Lo, part.Hi - keeper.sp.Lo}
				// Composite all members' restrictions front-to-back into the
				// backmost member's buffer slice for this part.
				dst := members[k-1].pix[rel.Lo:rel.Hi]
				for m := k - 2; m >= 0; m-- {
					compositePieces(members[m].pix[rel.Lo:rel.Hi], dst)
				}
				// Each member other than the keeper sent the keeper one piece.
				st.Messages += k - 1
				st.PixelsSent += int64(part.size()) * int64(k-1)
				np := &proc{rank: keeper.rank, sp: part, pix: append([]img.RGBA(nil), dst...)}
				// Next round groups the j-th keepers across groups: order
				// them so ranks holding the same relative part are adjacent.
				next[j*groups+g] = np
			}
		}
		procs = next
	}

	// Gather: every proc ships its final piece to the root.
	out := img.New(w, h)
	st.Rounds++
	for _, p := range procs {
		copy(out.Pix[p.sp.Lo:p.sp.Hi], p.pix)
		if p.rank != 0 {
			st.Messages++
			st.PixelsSent += int64(p.sp.size())
		}
	}
	return out, st
}

// BinarySwap is the classic hierarchical halving exchange of Ma et al. [12].
// Non-power-of-two layer counts are folded in first.
type BinarySwap struct{}

// Name identifies the algorithm in experiment output.
func (BinarySwap) Name() string { return "binary-swap" }

// Composite merges layers (front-to-back) into the final image.
func (BinarySwap) Composite(layers []*img.Image) (*img.Image, Stats) {
	return swap(layers, 2)
}

// TwoThreeSwap generalizes binary swap to rounds of pair and triple
// exchanges, supporting 2^a·3^b processor counts natively (others fold in) —
// the algorithm the paper's implementation uses [13].
type TwoThreeSwap struct{}

// Name identifies the algorithm in experiment output.
func (TwoThreeSwap) Name() string { return "2-3-swap" }

// Composite merges layers (front-to-back) into the final image.
func (TwoThreeSwap) Composite(layers []*img.Image) (*img.Image, Stats) {
	return swap(layers, 0)
}

// BinarySwapRounds returns the synchronous round count binary swap performs
// for n layers, including the final gather and any fold-in pre-round. The
// simulator prices composites with these closed forms so it never has to
// push pixels in virtual time.
func BinarySwapRounds(n int) int {
	if n <= 1 {
		return 1
	}
	target := 1
	for target*2 <= n {
		target *= 2
	}
	rounds := 1 // gather
	if target < n {
		rounds++
	}
	for t := target; t > 1; t /= 2 {
		rounds++
	}
	return rounds
}

// TwoThreeSwapRounds returns the synchronous round count 2-3 swap performs
// for n layers, including the final gather and any fold-in pre-round.
func TwoThreeSwapRounds(n int) int {
	if n <= 1 {
		return 1
	}
	target := largest23LE(n)
	rounds := 1 // gather
	if target < n {
		rounds++
	}
	ks, _ := groupSizesFor(target)
	return rounds + len(ks)
}

// DirectSendRounds returns direct send's round count for n layers: one
// all-to-all exchange plus the gather.
func DirectSendRounds(n int) int {
	if n <= 1 {
		return 1
	}
	return 2
}

// ByDepth sorts fragments' layers front-to-back given parallel slices of
// images and depths, returning the ordered layers. It is the small glue the
// service and tests use before compositing.
func ByDepth(images []*img.Image, depths []float64) []*img.Image {
	if len(images) != len(depths) {
		panic("compositing: images/depths length mismatch")
	}
	idx := make([]int, len(images))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(depths[a], depths[b]) })
	out := make([]*img.Image, len(images))
	for i, j := range idx {
		out[i] = images[j]
	}
	return out
}
