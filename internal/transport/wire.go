package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// Message bodies are hand-laid-out byte strings, not a self-describing
// format: every protocol struct appends its fields in declaration order
// and parses them back with a length check on every read. The field
// encodings are
//
//	uint64          unsigned LEB128 varint (encoding/binary's Uvarint)
//	int, int64      zig-zag varint (encoding/binary's Varint)
//	bool            one byte, 0 or 1
//	float64/float32 IEEE-754 bits, fixed 8/4 bytes little-endian
//	string, []byte  uvarint byte count, then the bytes
//	[]T             uvarint element count, then the elements
//
// A body carries no type tag (Message.Kind says what it is) and no field
// names, so a Task costs its values — about 60 bytes — and nothing is
// re-sent per message.

// BodyAppender is the encoding half of a protocol body: AppendBody appends
// the body's wire form to dst and returns the extended slice. Bodies
// implement it on the value receiver, so both T and *T can be encoded.
type BodyAppender interface {
	AppendBody(dst []byte) []byte
}

// BodyParser is the decoding half, implemented on *T: ParseBody overwrites
// every field of the receiver from src, which must hold exactly one body —
// truncated input, a length prefix that runs past the end and trailing
// bytes are all errors. []byte fields alias src; see Decode.
type BodyParser interface {
	ParseBody(src []byte) error
}

// ErrMalformedBody reports a body that is truncated, overlong, or carries a
// length prefix its remaining bytes cannot satisfy.
var ErrMalformedBody = errors.New("transport: malformed message body")

// maxPooledScratch caps the encode scratch a pool entry may keep: a 4K
// float frame encodes to hundreds of megabytes once, and that buffer must
// not stay pinned behind a pool for the 60-byte tasks that follow.
const maxPooledScratch = 1 << 20

var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

// Encode returns v's wire form as an exact-size slice the caller owns
// (Pipe hands a Message.Body to the peer as is, so it is never pooled).
// v must implement BodyAppender.
func Encode(v any) ([]byte, error) {
	a, ok := v.(BodyAppender)
	if !ok {
		return nil, fmt.Errorf("transport: cannot encode %T: not a BodyAppender", v)
	}
	sp := scratchPool.Get().(*[]byte)
	buf := a.AppendBody((*sp)[:0])
	out := make([]byte, len(buf))
	copy(out, buf)
	if cap(buf) <= maxPooledScratch {
		*sp = buf[:0]
	}
	scratchPool.Put(sp)
	return out, nil
}

// Decode parses body into v, which must implement BodyParser. The decoded
// value's []byte fields (fragment pixels, a result's PNG) are sub-slices of
// body rather than copies: the receiver of a Message owns its Body, and
// neither may be written to afterwards.
func Decode(body []byte, v any) error {
	p, ok := v.(BodyParser)
	if !ok {
		return fmt.Errorf("transport: cannot decode into %T: not a BodyParser", v)
	}
	return p.ParseBody(body)
}

// AppendUint64 appends v as a uvarint.
func AppendUint64(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// AppendInt64 appends v as a zig-zag varint.
func AppendInt64(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

// AppendInt appends v as a zig-zag varint.
func AppendInt(dst []byte, v int) []byte { return binary.AppendVarint(dst, int64(v)) }

// AppendBool appends v as one byte.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendFloat64 appends v's IEEE-754 bits, little-endian.
func AppendFloat64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// AppendFloat32 appends v's IEEE-754 bits, little-endian.
func AppendFloat32(dst []byte, v float32) []byte {
	return binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
}

// AppendString appends s behind its byte count.
func AppendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// AppendBytes appends b behind its byte count.
func AppendBytes(dst []byte, b []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(b))), b...)
}

// BodyReader consumes a body field by field. The first read that does not
// fit latches an error and every later read returns a zero value, so a
// ParseBody reads all its fields unconditionally and checks Done once.
type BodyReader struct {
	buf []byte
	err error
}

// NewBodyReader reads from src.
func NewBodyReader(src []byte) BodyReader { return BodyReader{buf: src} }

func (r *BodyReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s with %d bytes left", ErrMalformedBody, what, len(r.buf))
	}
	r.buf = nil
}

// take returns the next n bytes, or nil after latching an error.
func (r *BodyReader) take(n uint64, what string) []byte {
	if n > uint64(len(r.buf)) {
		r.fail(what)
		return nil
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

// Uint64 reads a uvarint.
func (r *BodyReader) Uint64() uint64 {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Int64 reads a zig-zag varint.
func (r *BodyReader) Int64() int64 {
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Int reads a zig-zag varint that must fit the platform's int.
func (r *BodyReader) Int() int {
	v := r.Int64()
	if int64(int(v)) != v {
		r.fail("int overflow")
		return 0
	}
	return int(v)
}

// Bool reads one byte, which must be 0 or 1.
func (r *BodyReader) Bool() bool {
	b := r.take(1, "bool")
	if b == nil {
		return false
	}
	if b[0] > 1 {
		r.fail("bad bool")
		return false
	}
	return b[0] == 1
}

// Float64 reads eight little-endian bytes.
func (r *BodyReader) Float64() float64 {
	b := r.take(8, "float64")
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// Float32 reads four little-endian bytes.
func (r *BodyReader) Float32() float32 {
	b := r.take(4, "float32")
	if b == nil {
		return 0
	}
	return math.Float32frombits(binary.LittleEndian.Uint32(b))
}

// String reads a counted string (copied out of the source).
func (r *BodyReader) String() string {
	return string(r.take(r.Uint64(), "string"))
}

// Bytes reads a counted byte string as a sub-slice of the source, capacity
// clipped to its length; an empty one reads as nil.
func (r *BodyReader) Bytes() []byte {
	b := r.take(r.Uint64(), "bytes")
	if len(b) == 0 {
		return nil
	}
	return b
}

// Count reads a list's element count and checks it against the bytes left:
// every element occupies at least minElemBytes, so a count the remaining
// input cannot hold is rejected before the caller allocates for it.
func (r *BodyReader) Count(minElemBytes int) int {
	n := r.Uint64()
	if n > uint64(len(r.buf))/uint64(minElemBytes) {
		r.fail("list count")
		return 0
	}
	return int(n)
}

// Done reports the first read error, or trailing bytes after the last field.
func (r *BodyReader) Done() error {
	if r.err == nil && len(r.buf) > 0 {
		r.fail("trailing bytes")
	}
	return r.err
}
