package dfb

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"vizsched/internal/img"
	"vizsched/internal/transport"
)

// pipelineRender is a deterministic per-(node, frame) layer producer.
func pipelineRender(w, h int) func(node, frame int) *img.Image {
	return func(node, frame int) *img.Image {
		return layer(w, h, int64(1000*frame+node))
	}
}

// refFrames composites each frame's layers serially for comparison.
func refFrames(w, h, nodes, frames int, dead []bool) []*img.Image {
	render := pipelineRender(w, h)
	outs := make([]*img.Image, frames)
	for f := 0; f < frames; f++ {
		var ls []*img.Image
		for n := 0; n < nodes; n++ {
			if n < len(dead) && dead[n] {
				continue
			}
			ls = append(ls, render(n, f))
		}
		outs[f] = serialRef(ls)
	}
	return outs
}

func TestDFBPipelineMatchesSerial(t *testing.T) {
	const w, h, nodes, frames = 48, 40, 5, 4
	outs, st, err := Run(Params{Nodes: nodes, Tile: 16, Window: 2}, w, h, frames, pipelineRender(w, h))
	if err != nil {
		t.Fatal(err)
	}
	refs := refFrames(w, h, nodes, frames, nil)
	for f := range outs {
		if d := img.MaxDiff(refs[f], outs[f]); d != 0 {
			t.Fatalf("frame %d not bit-identical to serial: MaxDiff=%g", f, d)
		}
	}
	layout := NewLayout(w, h, 16)
	if st.TilesFinalized != int64(layout.NumTiles()*frames) {
		t.Fatalf("TilesFinalized=%d want %d", st.TilesFinalized, layout.NumTiles()*frames)
	}
	if st.MaxInFlight > 2 {
		t.Fatalf("window violated: %d frames in flight", st.MaxInFlight)
	}
	if st.FragmentsSent == 0 {
		t.Fatal("no fragments crossed the transport")
	}
}

// TestDFBPipelineStragglerStaysExact injects one slow node: latency is the
// straggler's problem, correctness must not be.
func TestDFBPipelineStragglerStaysExact(t *testing.T) {
	const w, h, nodes, frames = 32, 32, 4, 3
	delay := func(node, frame int) time.Duration {
		if node == 1 {
			return 3 * time.Millisecond
		}
		return 0
	}
	outs, _, err := Run(Params{Nodes: nodes, Tile: 16, Window: 2, Delay: delay}, w, h, frames, pipelineRender(w, h))
	if err != nil {
		t.Fatal(err)
	}
	refs := refFrames(w, h, nodes, frames, nil)
	for f := range outs {
		if d := img.MaxDiff(refs[f], outs[f]); d != 0 {
			t.Fatalf("frame %d diverged under straggler: MaxDiff=%g", f, d)
		}
	}
}

// TestDFBPipelineDeadNodeReHomes drops a node: its tiles re-home over the
// survivors and the frame composites the surviving layers exactly.
func TestDFBPipelineDeadNodeReHomes(t *testing.T) {
	const w, h, nodes, frames = 32, 32, 5, 2
	dead := []bool{false, false, true, false, false}
	outs, _, err := Run(Params{Nodes: nodes, Tile: 16, Dead: dead}, w, h, frames, pipelineRender(w, h))
	if err != nil {
		t.Fatal(err)
	}
	refs := refFrames(w, h, nodes, frames, dead)
	for f := range outs {
		if d := img.MaxDiff(refs[f], outs[f]); d != 0 {
			t.Fatalf("frame %d wrong after node loss: MaxDiff=%g", f, d)
		}
	}
}

func TestDFBPipelineWindowOne(t *testing.T) {
	const w, h, nodes, frames = 32, 32, 3, 4
	_, st, err := Run(Params{Nodes: nodes, Tile: 16, Window: 1}, w, h, frames, pipelineRender(w, h))
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxInFlight != 1 {
		t.Fatalf("window=1 but MaxInFlight=%d", st.MaxInFlight)
	}
}

func TestDFBPipelineSingleNode(t *testing.T) {
	const w, h = 20, 20
	outs, _, err := Run(Params{Nodes: 1, Tile: 16}, w, h, 1, pipelineRender(w, h))
	if err != nil {
		t.Fatal(err)
	}
	if d := img.MaxDiff(refFrames(w, h, 1, 1, nil)[0], outs[0]); d != 0 {
		t.Fatalf("single node wrong: MaxDiff=%g", d)
	}
}

// The pipeline's two message bodies round-trip through the wire codec, and
// every truncation, a pixel count the input cannot hold, and a trailing byte
// are errors.
func TestPipelineBodiesWireFormat(t *testing.T) {
	pix := []img.RGBA{{R: 0.25, G: 0.5, B: 0.75, A: 1}, {A: 0.125}, {}}
	frag := tileFragBody{Frame: 3, Tile: 7, Rank: 2, Pix: pix}
	done := tileDoneBody{Frame: 3, Tile: 7, Pix: pix}

	var gotFrag tileFragBody
	rawFrag, err := transport.Encode(frag)
	if err != nil {
		t.Fatal(err)
	}
	if err := transport.Decode(rawFrag, &gotFrag); err != nil || !reflect.DeepEqual(frag, gotFrag) {
		t.Fatalf("tile fragment round trip: %+v, err %v", gotFrag, err)
	}
	var gotDone tileDoneBody
	rawDone, err := transport.Encode(done)
	if err != nil {
		t.Fatal(err)
	}
	if err := transport.Decode(rawDone, &gotDone); err != nil || !reflect.DeepEqual(done, gotDone) {
		t.Fatalf("tile done round trip: %+v, err %v", gotDone, err)
	}

	for _, c := range []struct {
		raw []byte
		out transport.BodyParser
	}{{rawFrag, &gotFrag}, {rawDone, &gotDone}} {
		for n := 0; n < len(c.raw); n++ {
			if err := c.out.ParseBody(c.raw[:n]); !errors.Is(err, transport.ErrMalformedBody) {
				t.Errorf("%T cut to %d of %d bytes: err = %v", c.out, n, len(c.raw), err)
			}
		}
		if err := c.out.ParseBody(append(bytes.Clone(c.raw), 0)); !errors.Is(err, transport.ErrMalformedBody) {
			t.Errorf("%T with a trailing byte: err = %v", c.out, err)
		}
	}
	// Frame 0, tile 0, then a claim of 2^40 pixels backed by sixteen bytes.
	claim := append([]byte{0, 0}, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20)
	claim = append(claim, make([]byte, 16)...)
	if err := gotDone.ParseBody(claim); !errors.Is(err, transport.ErrMalformedBody) {
		t.Errorf("oversized pixel count: err = %v", err)
	}
}
