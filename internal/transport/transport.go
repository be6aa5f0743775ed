// Package transport provides the message-passing substrate for the live
// (non-simulated) visualization service: an in-process channel transport
// for single-binary deployments and tests, and a TCP transport with a
// length-prefixed, CRC32-guarded wire protocol standing in for the paper's
// MPI layer.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
)

// Kind tags a message's role in the service protocol.
type Kind int

// Protocol message kinds.
const (
	// KindHello introduces a worker to the head (payload: HelloBody).
	KindHello Kind = iota + 1
	// KindRender carries a render request from a client to the head.
	KindRender
	// KindTask carries one task assignment from the head to a worker.
	KindTask
	// KindFragment returns a rendered fragment from a worker.
	KindFragment
	// KindResult returns a final image to a client.
	KindResult
	// KindError reports a failure for a specific request.
	KindError
	// KindShutdown asks the receiver to stop.
	KindShutdown
	// KindHeartbeat is a liveness beacon (no body). Workers emit it on an
	// interval so the head can tell a stalled node from an idle one.
	KindHeartbeat
	// KindPrefetch asks a worker to warm one chunk into its cache ahead of
	// predicted demand (payload: PrefetchBody).
	KindPrefetch
	// KindPrefetchDone reports a warm's outcome back to the head (payload:
	// PrefetchDoneBody).
	KindPrefetchDone
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindHello:
		return "hello"
	case KindRender:
		return "render"
	case KindTask:
		return "task"
	case KindFragment:
		return "fragment"
	case KindResult:
		return "result"
	case KindError:
		return "error"
	case KindShutdown:
		return "shutdown"
	case KindHeartbeat:
		return "heartbeat"
	case KindPrefetch:
		return "prefetch"
	case KindPrefetchDone:
		return "prefetch-done"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Message is one framed protocol unit. Body holds the wire form (see
// Encode) of the struct appropriate to the Kind; ID correlates requests
// with responses. Body belongs to whoever holds the Message: Pipe delivers
// the sender's slice itself, so a sender must not reuse or pool it.
type Message struct {
	Kind Kind
	ID   uint64
	Body []byte
}

// ErrClosed is returned by operations on a closed connection.
var ErrClosed = errors.New("transport: connection closed")

// Conn is a bidirectional ordered message pipe. Send is safe for concurrent
// callers (a worker's executor and heartbeat goroutines share one
// connection); Recv is safe for one concurrent caller — the service uses a
// single reader goroutine per connection.
type Conn interface {
	Send(m Message) error
	Recv() (Message, error)
	Close() error
}

// Listener accepts incoming connections.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	// Addr returns the dialable address of this listener.
	Addr() string
}

// --- In-process transport ---

// chanConn is one end of a paired in-process connection.
type chanConn struct {
	out  chan<- Message
	in   <-chan Message
	done chan struct{}
	once sync.Once
	// peerDone observes the other end's closure.
	peerDone chan struct{}
}

// Pipe returns two connected in-process ends.
func Pipe() (Conn, Conn) {
	ab := make(chan Message, 64)
	ba := make(chan Message, 64)
	da := make(chan struct{})
	db := make(chan struct{})
	a := &chanConn{out: ab, in: ba, done: da, peerDone: db}
	b := &chanConn{out: ba, in: ab, done: db, peerDone: da}
	return a, b
}

// Send implements Conn.
func (c *chanConn) Send(m Message) error {
	// Check closure first: a select with a ready buffered channel and a
	// closed done channel picks randomly, which would let sends to a dead
	// peer "succeed" half the time.
	select {
	case <-c.done:
		return ErrClosed
	case <-c.peerDone:
		return ErrClosed
	default:
	}
	select {
	case <-c.done:
		return ErrClosed
	case <-c.peerDone:
		return ErrClosed
	case c.out <- m:
		return nil
	}
}

// Recv implements Conn.
func (c *chanConn) Recv() (Message, error) {
	select {
	case <-c.done:
		return Message{}, ErrClosed
	case m := <-c.in:
		return m, nil
	case <-c.peerDone:
		// Drain anything the peer sent before closing.
		select {
		case m := <-c.in:
			return m, nil
		default:
			return Message{}, ErrClosed
		}
	}
}

// Close implements Conn.
func (c *chanConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return nil
}

// ChanListener hands out in-process connections to dialers that hold a
// reference to it.
type ChanListener struct {
	mu     sync.Mutex
	queue  chan Conn
	closed bool
}

// NewChanListener returns an in-process listener.
func NewChanListener() *ChanListener {
	return &ChanListener{queue: make(chan Conn, 16)}
}

// Dial creates a connection pair, queues the server end for Accept, and
// returns the client end.
func (l *ChanListener) Dial() (Conn, error) {
	l.mu.Lock()
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	client, server := Pipe()
	l.queue <- server
	return client, nil
}

// Accept implements Listener.
func (l *ChanListener) Accept() (Conn, error) {
	c, ok := <-l.queue
	if !ok {
		return nil, ErrClosed
	}
	return c, nil
}

// Close implements Listener.
func (l *ChanListener) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.closed = true
		close(l.queue)
	}
	return nil
}

// Addr implements Listener.
func (l *ChanListener) Addr() string { return "inproc" }

// --- TCP transport ---

// Wire framing: every message travels as one self-delimiting frame
//
//	[4B big-endian payload length][4B big-endian CRC32(payload)][payload]
//	payload = [4B kind][8B id][body bytes]
//
// The length prefix bounds reads (a corrupted or hostile peer cannot make
// the receiver allocate unbounded memory past MaxFrameSize), and the CRC32
// (IEEE) detects payload corruption before any of it is interpreted. The
// header is checked before the payload is read, so an oversized length is
// rejected without consuming the stream.
const (
	frameHeaderLen = 8  // length + CRC
	frameMetaLen   = 12 // kind + id inside the payload
)

// MaxFrameSize caps a single frame's payload. Full-frame fragments dominate
// sizing: a 4K RGBA float accumulation is ~265MB, so 512MB leaves headroom
// while still rejecting a corrupt length prefix (which is uniform over 4GB)
// with probability ~7/8 before the CRC even runs.
var MaxFrameSize = uint32(512 << 20)

// ErrCorruptFrame reports a frame whose CRC32 did not match its payload.
var ErrCorruptFrame = errors.New("transport: corrupt frame (CRC mismatch)")

// ErrFrameTooLarge reports a frame whose declared length exceeds MaxFrameSize.
var ErrFrameTooLarge = errors.New("transport: frame exceeds size bound")

// tcpConn frames Messages over a net.Conn with the length+CRC codec.
type tcpConn struct {
	nc   net.Conn
	wmu  sync.Mutex
	whdr [frameHeaderLen + frameMetaLen]byte
	// wvec backs the header+body vector Send hands to writev; kept here so a
	// send allocates nothing.
	wvec [2][]byte
	wbuf net.Buffers
	rhdr [frameHeaderLen + frameMetaLen]byte
	once sync.Once
}

func newTCPConn(nc net.Conn) *tcpConn {
	return &tcpConn{nc: nc}
}

// Send implements Conn. Header and body leave in one writev, so a message
// costs one syscall and the bytes on the wire are AppendFrame's.
func (c *tcpConn) Send(m Message) error {
	if uint64(frameMetaLen+len(m.Body)) > uint64(MaxFrameSize) {
		return fmt.Errorf("%w: payload %dB > limit %dB", ErrFrameTooLarge, frameMetaLen+len(m.Body), MaxFrameSize)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	putFrameHeader(c.whdr[:], m)
	c.wbuf = append(c.wvec[:0], c.whdr[:])
	if len(m.Body) > 0 {
		c.wbuf = append(c.wbuf, m.Body)
	}
	// WriteTo consumes wbuf and nils the entries it has written, so no
	// reference to the body outlives the call.
	_, err := c.wbuf.WriteTo(c.nc)
	return err
}

// putFrameHeader fills h (frameHeaderLen+frameMetaLen bytes) with m's
// length, CRC, kind and id.
func putFrameHeader(h []byte, m Message) {
	binary.BigEndian.PutUint32(h[8:12], uint32(m.Kind))
	binary.BigEndian.PutUint64(h[12:20], m.ID)
	crc := crc32.ChecksumIEEE(h[8:20])
	crc = crc32.Update(crc, crc32.IEEETable, m.Body)
	binary.BigEndian.PutUint32(h[0:4], uint32(frameMetaLen+len(m.Body)))
	binary.BigEndian.PutUint32(h[4:8], crc)
}

// Recv implements Conn.
func (c *tcpConn) Recv() (Message, error) {
	return ReadFrame(c.nc, c.rhdr[:])
}

// ReadFrame decodes one frame from r. scratch, when at least
// frameHeaderLen+frameMetaLen bytes, is used for the fixed header (a
// connection reuses one buffer across frames); pass nil to allocate. The
// length prefix is validated against MaxFrameSize before any payload
// allocation and the CRC before any interpretation, so a corrupt or
// hostile stream yields ErrCorruptFrame/ErrFrameTooLarge (or the reader's
// own error on truncation) — never a panic or an unbounded allocation.
// Factored out of the connection so the corruption-handling contract is
// fuzzable against raw byte streams.
func ReadFrame(r io.Reader, scratch []byte) (Message, error) {
	if len(scratch) < frameHeaderLen+frameMetaLen {
		scratch = make([]byte, frameHeaderLen+frameMetaLen)
	}
	h := scratch[:frameHeaderLen+frameMetaLen]
	if _, err := io.ReadFull(r, h[:frameHeaderLen]); err != nil {
		return Message{}, err
	}
	length := binary.BigEndian.Uint32(h[0:4])
	want := binary.BigEndian.Uint32(h[4:8])
	if length < frameMetaLen {
		return Message{}, fmt.Errorf("%w: declared payload %dB is shorter than the %dB message header",
			ErrCorruptFrame, length, frameMetaLen)
	}
	if length > MaxFrameSize {
		return Message{}, fmt.Errorf("%w: declared payload %dB > limit %dB", ErrFrameTooLarge, length, MaxFrameSize)
	}
	if _, err := io.ReadFull(r, h[frameHeaderLen:]); err != nil {
		return Message{}, err
	}
	var body []byte
	if n := int(length) - frameMetaLen; n > 0 {
		body = make([]byte, n)
		if _, err := io.ReadFull(r, body); err != nil {
			return Message{}, err
		}
	}
	crc := crc32.ChecksumIEEE(h[frameHeaderLen:])
	crc = crc32.Update(crc, crc32.IEEETable, body)
	if crc != want {
		return Message{}, fmt.Errorf("%w: got %08x want %08x over %dB payload", ErrCorruptFrame, crc, want, length)
	}
	return Message{
		Kind: Kind(binary.BigEndian.Uint32(h[8:12])),
		ID:   binary.BigEndian.Uint64(h[12:20]),
		Body: body,
	}, nil
}

// AppendFrame appends m's wire encoding to dst — the exact bytes Send
// writes — and returns the extended slice. Fails only on an oversized
// body. The encoder half of ReadFrame; the fuzz suite round-trips through
// the pair.
func AppendFrame(dst []byte, m Message) ([]byte, error) {
	if uint64(frameMetaLen+len(m.Body)) > uint64(MaxFrameSize) {
		return dst, fmt.Errorf("%w: payload %dB > limit %dB", ErrFrameTooLarge, frameMetaLen+len(m.Body), MaxFrameSize)
	}
	var h [frameHeaderLen + frameMetaLen]byte
	putFrameHeader(h[:], m)
	dst = append(dst, h[:]...)
	return append(dst, m.Body...), nil
}

// Close implements Conn.
func (c *tcpConn) Close() error {
	var err error
	c.once.Do(func() { err = c.nc.Close() })
	return err
}

// tcpListener wraps a net.Listener.
type tcpListener struct {
	nl net.Listener
}

// ListenTCP starts a TCP listener on addr (e.g. "127.0.0.1:0").
func ListenTCP(addr string) (Listener, error) {
	nl, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpListener{nl: nl}, nil
}

// Accept implements Listener.
func (l *tcpListener) Accept() (Conn, error) {
	nc, err := l.nl.Accept()
	if err != nil {
		return nil, err
	}
	return newTCPConn(nc), nil
}

// Close implements Listener.
func (l *tcpListener) Close() error { return l.nl.Close() }

// Addr implements Listener.
func (l *tcpListener) Addr() string { return l.nl.Addr().String() }

// DialTCP connects to a TCP listener.
func DialTCP(addr string) (Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newTCPConn(nc), nil
}
