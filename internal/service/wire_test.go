package service

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"reflect"
	"testing"

	"vizsched/internal/transport"
)

// wireBody is what every protocol body is: encodable by value, decodable
// through its pointer.
type wireBody interface {
	transport.BodyAppender
	transport.BodyParser
}

// sampleRender is a request with every field set to a value its zero would
// not encode as.
var sampleRender = RenderBody{
	Dataset: "supernova", Angle: 0.6, Elevation: -0.3, Dist: 2.4,
	Width: 128, Height: 96, Mode: 2, IsoValue: 0.45, Batch: true,
	Action: 7, Tenant: 3, Key: 0xfeedfacecafebeef,
}

// wireBodies lists, for each of the eight protocol bodies, a constructor for
// an empty one and a fully populated sample. FuzzBodyDecode selects from it
// by index, so the order is part of the checked-in corpus.
var wireBodies = []struct {
	name   string
	empty  func() wireBody
	sample wireBody
}{
	{"hello", func() wireBody { return new(HelloBody) }, &HelloBody{
		Name: "worker-3", MemQuota: 1 << 33, NodeID: 3, Rejoin: true, Shard: -1, Slots: 2, Resync: true,
		Cached:      []ChunkRef{{"plume", 0}, {"supernova", 5}},
		Completed:   []TaskRef{{JobID: 1 << 41, TaskIndex: 2}},
		Outstanding: []TaskRef{{JobID: 9, TaskIndex: 0}, {JobID: 9, TaskIndex: 1}},
	}},
	{"render", func() wireBody { return new(RenderBody) }, &sampleRender},
	{"task", func() wireBody { return new(TaskBody) }, &TaskBody{
		JobID: 1<<40 + 5, TaskIndex: 2, Dataset: "supernova", Chunk: 2, Render: sampleRender,
	}},
	{"fragment", func() wireBody { return new(FragmentBody) }, &FragmentBody{
		JobID: 12, TaskIndex: 1, X0: 17, Y0: 40, W: 61, H: 33, Codec: CodecRuns, Data: []byte{1, 2, 3, 4, 5},
		Depth: 2.25, Hit: true, ExecNanos: 4_200_000, Evicted: []ChunkRef{{"plume", 3}},
	}},
	{"prefetch", func() wireBody { return new(PrefetchBody) }, &PrefetchBody{Dataset: "plume", Chunk: 4}},
	{"prefetch-done", func() wireBody { return new(PrefetchDoneBody) }, &PrefetchDoneBody{
		Dataset: "plume", Chunk: 4, Resident: true, Loaded: true, Nanos: 81_000, Evicted: []ChunkRef{{"supernova", 0}},
	}},
	{"result", func() wireBody { return new(ResultBody) }, &ResultBody{
		Width: 128, Height: 96, PNG: []byte("\x89PNG..."), ElapsedNanos: 15_000_000, Hits: 2, Misses: 1,
	}},
	{"error", func() wireBody { return new(ErrorBody) }, &ErrorBody{Msg: "unknown dataset \"x\""}},
}

func TestBodiesRoundTrip(t *testing.T) {
	for _, b := range wireBodies {
		for _, in := range []wireBody{b.sample, b.empty()} {
			raw, err := transport.Encode(in)
			if err != nil {
				t.Fatalf("%s: %v", b.name, err)
			}
			// Decode over a populated value: nothing of it may survive.
			out := b.empty()
			if err := transport.Decode(b.sample.AppendBody(nil), out); err != nil {
				t.Fatalf("%s: %v", b.name, err)
			}
			if err := transport.Decode(raw, out); err != nil {
				t.Fatalf("%s: decoding %x: %v", b.name, raw, err)
			}
			if !reflect.DeepEqual(in, out) {
				t.Errorf("%s: round trip\n in  %+v\n out %+v", b.name, in, out)
			}
		}
	}
}

// Every strict prefix of a valid body, and a valid body with a byte after
// it, is an error — for every body kind.
func TestBodiesRejectTruncationAndTrailingBytes(t *testing.T) {
	for _, b := range wireBodies {
		raw := b.sample.AppendBody(nil)
		out := b.empty()
		for n := 0; n < len(raw); n++ {
			if err := out.ParseBody(raw[:n]); !errors.Is(err, transport.ErrMalformedBody) {
				t.Errorf("%s cut to %d of %d bytes: err = %v", b.name, n, len(raw), err)
			}
		}
		if err := out.ParseBody(append(bytes.Clone(raw), 0)); !errors.Is(err, transport.ErrMalformedBody) {
			t.Errorf("%s with a trailing byte: err = %v", b.name, err)
		}
	}
}

// pinnedHello and its bytes, cut where builds before PR 22 carried one more
// field: the tile edge, a varint between Rejoin and Shard.
var pinnedHello = HelloBody{
	Name: "w1", MemQuota: 1 << 30, NodeID: 2, Rejoin: true, Shard: 1, Slots: 2, Resync: true,
	Cached: []ChunkRef{{"d0", 1}}, Completed: []TaskRef{{JobID: 300, TaskIndex: 2}}, Outstanding: []TaskRef{{JobID: 301}},
}

const (
	helloHexHead = "027731" + "8080808008" + "04" + "01" // "w1", 1 GiB, node 2, rejoin
	helloHexTail = "02" + "04" + "01" +                  // shard 1, 2 slots, resync
		"01" + "026430" + "02" + "01" + "ac02" + "04" + "01" + "ad02" + "00" // cached d0/1, completed 300/2, outstanding 301/0
)

// The layouts are a wire contract between builds: these are the exact bytes
// of one Hello, one Task and one Fragment. A change here is a protocol change
// — bump reqVersion (a RenderBody is journaled) and say so in DESIGN.md.
func TestPinnedWireBytes(t *testing.T) {
	task := TaskBody{JobID: 300, TaskIndex: 2, Dataset: "d0", Chunk: 2, Render: RenderBody{
		Dataset: "d0", Angle: 0.5, Elevation: 0.25, Dist: 2.4, Width: 64, Height: 64, Action: 1,
	}}
	const taskHex = "ac02" + "04" + "026430" + "04" + // job 300, index 2, "d0", chunk 2
		"026430" + // render: "d0"
		"000000000000e03f" + "000000000000d03f" + "3333333333330340" + // angle, elevation, dist
		"8001" + "8001" + "00" + "00000000" + "00" + "02" + "00" + "00" // 64, 64, mode, iso, batch, action 1, tenant, key
	frag := FragmentBody{
		JobID: 300, TaskIndex: 2, X0: 12, Y0: 20, W: 24, H: 64, Codec: CodecRuns, Data: []byte{0xde, 0xad},
		Depth: 2, Hit: true, ExecNanos: 1000, Evicted: []ChunkRef{{"d1", 7}},
	}
	const fragHex = "ac02" + "04" + "18" + "28" + "30" + "8001" + "02" + // job, index, x0, y0, w, h, codec
		"02dead" + "0000000000000040" + "01" + "d00f" + // data, depth 2.0, hit, 1000 ns
		"01" + "026431" + "0e" // one eviction: "d1", 7
	for _, c := range []struct {
		name string
		body transport.BodyAppender
		want string
	}{{"hello", pinnedHello, helloHexHead + helloHexTail}, {"task", task, taskHex}, {"fragment", frag, fragHex}} {
		if got := hex.EncodeToString(c.body.AppendBody(nil)); got != c.want {
			t.Errorf("%s wire bytes changed:\n got  %s\n want %s", c.name, got, c.want)
		}
	}
	if n := len(task.AppendBody(nil)); n > 64 {
		t.Errorf("task body is %d bytes; the layout is meant to stay near 60", n)
	}
}

// Encode allocates the body it returns; Decode allocates the strings. Pixel
// bytes alias the message. Anything more is a regression toward the
// hundreds of allocations per message the reflective codec made.
func TestBodyCodecAllocs(t *testing.T) {
	task := &TaskBody{JobID: 1, TaskIndex: 1, Dataset: "d0", Chunk: 1, Render: sampleRender}
	frag := &FragmentBody{JobID: 1, TaskIndex: 1, X0: 8, Y0: 8, W: 40, H: 48, Codec: CodecRuns,
		Data: make([]byte, 4096), Depth: 2, Hit: true, ExecNanos: 1}
	var outTask TaskBody
	var outFrag FragmentBody
	for _, c := range []struct {
		name string
		in   transport.BodyAppender
		out  transport.BodyParser
	}{{"task", task, &outTask}, {"fragment", frag, &outFrag}} {
		allocs := testing.AllocsPerRun(100, func() {
			raw, err := transport.Encode(c.in)
			if err != nil {
				t.Fatal(err)
			}
			if err := transport.Decode(raw, c.out); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 4 {
			t.Errorf("%s encode+decode: %v allocs, want at most 4", c.name, allocs)
		}
	}
}

// FuzzBodyDecode feeds arbitrary bytes to every body's parser. The contract:
// no panic; an error is always ErrMalformedBody; and whatever parses
// re-encodes to no more bytes than it was parsed from (so a decoded value
// never holds more than its input did — length prefixes cannot conjure
// memory) and parses back to the same value.
func FuzzBodyDecode(f *testing.F) {
	for i, b := range wireBodies {
		raw := b.sample.AppendBody(nil)
		f.Add(uint8(i), raw)
		f.Add(uint8(i), raw[:len(raw)/2])
		f.Add(uint8(i), append(bytes.Clone(raw), 0xff))
		f.Add(uint8(i), b.empty().AppendBody(nil))
	}
	// Fragments whose rectangle no frame holds: the parser passes the numbers
	// through, whatever they are, and the head's compose refuses them.
	for _, frag := range []FragmentBody{
		{JobID: 1, X0: -1, Y0: -1, W: 8, H: 8, Data: []byte{1}},
		{JobID: 1, X0: math.MaxInt, Y0: math.MinInt, W: math.MaxInt, H: math.MaxInt, Data: []byte{1}},
		{JobID: 1, TaskIndex: 2, X0: 60, Y0: 60, W: 0, H: 0},
		{JobID: 1, W: -8, H: maxFrameEdge + 1, Codec: 0, Data: make([]byte, 16)},
	} {
		f.Add(uint8(3), frag.AppendBody(nil))
	}
	// Hellos from a build that still sent a tile edge, so that every field
	// after it is read one place late: pinnedHello with an edge of 64, and
	// that layout's empty hello, eleven zero bytes.
	stale, err := hex.DecodeString(helloHexHead + "8001" + helloHexTail)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(0), stale)
	f.Add(uint8(0), stale[:len(stale)/2])
	f.Add(uint8(0), append(bytes.Clone(stale), 0xff))
	f.Add(uint8(0), make([]byte, 11))
	// A list count and a string length far beyond the input.
	f.Add(uint8(0), []byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add(uint8(7), []byte{0xff, 0xff, 0xff, 0xff, 0x0f, 'x'})
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		b := wireBodies[int(kind)%len(wireBodies)]
		v := b.empty()
		if err := v.ParseBody(data); err != nil {
			if !errors.Is(err, transport.ErrMalformedBody) {
				t.Fatalf("%s: unexpected error class: %v", b.name, err)
			}
			return
		}
		again := v.AppendBody(nil)
		if len(again) > len(data) {
			t.Fatalf("%s: %d input bytes decoded to a value of %d encoded bytes", b.name, len(data), len(again))
		}
		w := b.empty()
		if err := w.ParseBody(again); err != nil {
			t.Fatalf("%s: re-encoded body does not parse: %v", b.name, err)
		}
		if !bytes.Equal(again, w.AppendBody(nil)) {
			t.Fatalf("%s: value changed across a re-encode", b.name)
		}
	})
}
