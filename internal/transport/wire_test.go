package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
)

// wireProbe exercises every field encoding the wire format has.
type wireProbe struct {
	U    uint64
	I    int
	N    int64
	B    bool
	F    float64
	G    float32
	S    string
	Data []byte
	List []int
}

func (p wireProbe) AppendBody(dst []byte) []byte {
	dst = AppendUint64(dst, p.U)
	dst = AppendInt(dst, p.I)
	dst = AppendInt64(dst, p.N)
	dst = AppendBool(dst, p.B)
	dst = AppendFloat64(dst, p.F)
	dst = AppendFloat32(dst, p.G)
	dst = AppendString(dst, p.S)
	dst = AppendBytes(dst, p.Data)
	dst = AppendUint64(dst, uint64(len(p.List)))
	for _, v := range p.List {
		dst = AppendInt(dst, v)
	}
	return dst
}

func (p *wireProbe) ParseBody(src []byte) error {
	r := NewBodyReader(src)
	*p = wireProbe{
		U: r.Uint64(), I: r.Int(), N: r.Int64(), B: r.Bool(),
		F: r.Float64(), G: r.Float32(), S: r.String(), Data: r.Bytes(),
	}
	if n := r.Count(1); n > 0 {
		p.List = make([]int, n)
		for i := range p.List {
			p.List[i] = r.Int()
		}
	}
	return r.Done()
}

func TestEncodeDecode(t *testing.T) {
	in := wireProbe{
		U: 1 << 63, I: -3, N: -1 << 62, B: true, F: -2.5, G: 0.125,
		S: "x", Data: []byte{9, 8, 7}, List: []int{1, -2, 300},
	}
	raw, err := Encode(in) // by value, as a caller holding a struct does
	if err != nil {
		t.Fatal(err)
	}
	if viaPtr, _ := Encode(&in); !bytes.Equal(raw, viaPtr) {
		t.Fatalf("Encode(v) and Encode(&v) differ:\n %x\n %x", raw, viaPtr)
	}
	if len(raw) != cap(raw) {
		t.Errorf("Encode returned len %d cap %d, want an exact-size slice", len(raw), cap(raw))
	}
	var out wireProbe
	if err := Decode(raw, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("roundtrip mismatch:\n in  %+v\n out %+v", in, out)
	}
	// Byte fields alias the body, clipped so an append cannot reach past them.
	if &out.Data[0] != &raw[bytes.Index(raw, in.Data)] || cap(out.Data) != len(out.Data) {
		t.Error("decoded Data does not alias the body with clipped capacity")
	}

	// A type that is not a body is an error, never a fallback codec.
	if _, err := Encode(struct{ X int }{1}); err == nil {
		t.Error("Encode accepted a non-body type")
	}
	if err := Decode(raw, &struct{ X int }{}); err == nil {
		t.Error("Decode accepted a non-body type")
	}
	// A value (not pointer) cannot be decoded into.
	if err := Decode(raw, out); err == nil {
		t.Error("Decode accepted a non-pointer body")
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	in := wireProbe{U: 300, I: -3, S: "dataset", Data: []byte("pixels"), List: []int{1, 2, 3}}
	raw, _ := Encode(in)
	var out wireProbe
	for n := 0; n < len(raw); n++ {
		if err := Decode(raw[:n], &out); !errors.Is(err, ErrMalformedBody) {
			t.Fatalf("truncation to %d of %d bytes: err = %v, want ErrMalformedBody", n, len(raw), err)
		}
	}
	if err := Decode(append(bytes.Clone(raw), 0), &out); !errors.Is(err, ErrMalformedBody) {
		t.Errorf("trailing byte: err = %v, want ErrMalformedBody", err)
	}

	// Length prefixes larger than what is left: a string, a byte run and a
	// list count, each claiming 2^60 elements. The claim is refused before
	// anything is sized by it (an allocation of that size would panic).
	huge := binary.AppendUvarint(nil, 1<<60)
	head := wireProbe{}.AppendBody(nil)
	// head ends with empty S, empty Data, empty List: three zero bytes.
	for i, cut := range []int{3, 2, 1} {
		bad := append(bytes.Clone(head[:len(head)-cut]), huge...)
		bad = append(bad, "some bytes, but not 2^60 of them"...)
		if err := Decode(bad, &out); !errors.Is(err, ErrMalformedBody) {
			t.Errorf("case %d: err = %v, want ErrMalformedBody", i, err)
		}
	}

	if err := Decode([]byte{0, 0, 0, 2}, &out); !errors.Is(err, ErrMalformedBody) {
		t.Errorf("bool byte 2: err = %v, want ErrMalformedBody", err)
	}
	// An overlong varint (eleven continuation bytes).
	if err := Decode(bytes.Repeat([]byte{0x80}, 11), &out); !errors.Is(err, ErrMalformedBody) {
		t.Errorf("overlong varint: err = %v, want ErrMalformedBody", err)
	}
}

// TestTCPSendWritesAppendFrameBytes pins the one-writev Send to the frame
// codec: what reaches the socket is byte for byte what AppendFrame builds.
func TestTCPSendWritesAppendFrameBytes(t *testing.T) {
	raw, framed := tcpPair(t)
	for _, m := range []Message{
		{Kind: KindHeartbeat},
		{Kind: KindTask, ID: 1 << 40, Body: []byte("task-body")},
		{Kind: KindFragment, ID: 7, Body: bytes.Repeat([]byte{0xab}, 70000)},
	} {
		want, err := AppendFrame(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		errc := make(chan error, 1)
		go func() { errc <- framed.Send(m) }()
		got := make([]byte, len(want))
		if _, err := io.ReadFull(raw, got); err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%v: Send wrote %d bytes that differ from AppendFrame", m.Kind, len(got))
		}
	}
}
