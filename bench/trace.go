package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"vizsched/internal/core"
	"vizsched/internal/transport"
	"vizsched/internal/units"
)

// The traced run records spans from outside the program under test: the
// load generator wraps each Render() call, and decorators installed at
// cluster bring-up wrap every transport.Conn and the scheduler. Nothing in
// internal/service or internal/core is changed (spans inside them are a
// later PR), so a span is exactly one call across a package boundary.

// span is one timed call, kept small: the recorded spans are live heap, and
// the frame path allocates so much per frame that a few megabytes more of
// live heap visibly lowers how often the collector runs. Times are wall-clock
// nanoseconds since the recorder's epoch; a span's ID is its index plus one.
type span struct {
	start, end int64
	msg        uint64 // Message.ID, or the first queued JobID for core.schedule
	body       int32  // transport body bytes
	jobs       int32  // queue length seen by core.schedule
	name       spanName
	kind       transport.Kind
	conn       uint8 // index into recorder.conns
	client     int8  // owning client connection for client-side spans, else -1
	worker     bool  // msg is a JobID (head↔worker link, scheduler)
}

type spanName uint8

const (
	spanRender spanName = iota
	spanSend
	spanRecv
	spanSchedule
)

var spanNames = [...]string{"client.render", "transport.send", "transport.recv", "core.schedule"}

// jsonSpan is a span as the trace file shows it.
type jsonSpan struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root, or unattributed (heartbeats)
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Conn names the decorated connection end: "client0", "head<client0",
	// "head>worker2", "worker2".
	Conn string `json:"conn,omitempty"`
	Kind string `json:"kind,omitempty"` // transport message kind
	Msg  uint64 `json:"msg,omitempty"`
	Body int32  `json:"body_bytes,omitempty"`
	Jobs int32  `json:"jobs,omitempty"`
}

// frameKey identifies one client request: the connection it travelled on and
// the message ID service.Client gave it.
type frameKey struct {
	client int8
	msg    uint64
}

// recorder keeps spans in memory until the run ends. Counting (admissions) is
// always on, because JobIDs count from bring-up; spans are kept only while on
// is set, so the same process can measure an untraced reference window.
type recorder struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
	conns []string
	// admitted[j-1] is the client request the head admitted as JobID j: the
	// head numbers jobs in the order render requests reach it, and every
	// head-side client connection is decorated, so the k-th observed render
	// request is job k. With two client connections two near-simultaneous
	// requests may swap; with one the join is exact.
	admitted []frameKey
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// reset drops recorded spans (not the admission order) and turns recording
// on or off.
func (r *recorder) reset(on bool) {
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.mu.Unlock()
	r.on.Store(on)
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes spans one per line, each with its parent resolved: a
// client connection's messages belong to the client.render span with their
// message ID; head↔worker messages and scheduler calls carry a JobID, which
// the admission order maps back to a client request.
func (r *recorder) writeJSONL(path string, spans []span) error {
	r.mu.Lock()
	conns, admitted := r.conns, r.admitted
	r.mu.Unlock()
	roots := make(map[frameKey]int)
	for i, s := range spans {
		if s.name == spanRender {
			roots[frameKey{s.client, s.msg}] = i + 1
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	for i, s := range spans {
		js := jsonSpan{ID: i + 1, Name: spanNames[s.name], Start: s.start, End: s.end,
			Msg: s.msg, Body: s.body, Jobs: s.jobs}
		if s.name != spanSchedule {
			js.Conn = conns[s.conn]
		}
		if s.name == spanSend || s.name == spanRecv {
			js.Kind = s.kind.String()
		}
		switch {
		case s.name == spanRender:
		case s.worker:
			if j := int(s.msg); j >= 1 && j <= len(admitted) {
				js.Parent = roots[admitted[j-1]]
			}
		case s.client >= 0:
			js.Parent = roots[frameKey{s.client, s.msg}]
		}
		if err := enc.Encode(&js); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedConn decorates one end of a connection. client is the client
// connection index for client-side and head-side client connections and -1
// on head↔worker links; headSide marks the head's end of a client connection,
// where render requests are counted into the admission order.
type tracedConn struct {
	transport.Conn
	rec      *recorder
	conn     uint8
	client   int8
	headSide bool
}

func (c *tracedConn) span(name spanName, m transport.Message, start, end time.Time) {
	c.rec.add(span{
		name: name, start: c.rec.since(start), end: c.rec.since(end),
		conn: c.conn, kind: m.Kind, msg: m.ID, body: int32(len(m.Body)),
		client: c.client, worker: c.client < 0 && m.Kind != transport.KindHeartbeat,
	})
}

// Send times the wrapped Send.
func (c *tracedConn) Send(m transport.Message) error {
	if !c.rec.on.Load() {
		return c.Conn.Send(m)
	}
	start := time.Now()
	err := c.Conn.Send(m)
	c.span(spanSend, m, start, time.Now())
	return err
}

// Recv marks a message's arrival. The wait inside Recv is idle time, not
// work, so the span is the instant Recv returned.
func (c *tracedConn) Recv() (transport.Message, error) {
	m, err := c.Conn.Recv()
	if err != nil {
		return m, err
	}
	if c.headSide && m.Kind == transport.KindRender {
		c.rec.mu.Lock()
		c.rec.admitted = append(c.rec.admitted, frameKey{c.client, m.ID})
		c.rec.mu.Unlock()
	}
	if c.rec.on.Load() {
		now := time.Now()
		c.span(spanRecv, m, now, now)
	}
	return m, nil
}

// wrap decorates conn when tracing is on and returns it unchanged otherwise.
func (r *recorder) wrap(conn transport.Conn, name string, client int, headSide bool) transport.Conn {
	if r == nil {
		return conn
	}
	return &tracedConn{Conn: conn, rec: r, conn: r.connIndex(name), client: int8(client), headSide: headSide}
}

// connIndex registers a connection end's name.
func (r *recorder) connIndex(name string) uint8 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.conns = append(r.conns, name)
	return uint8(len(r.conns) - 1)
}

// tracedListener decorates accepted client connections on the head's side.
// Connections are numbered in accept order, which bring-up makes equal to
// dial order by dialling one client at a time.
type tracedListener struct {
	transport.Listener
	rec *recorder
	n   atomic.Int64
}

func (l *tracedListener) Accept() (transport.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	i := int(l.n.Add(1)) - 1
	return l.rec.wrap(conn, clientConnName(i, true), i, true), nil
}

// tracedScheduler times every Schedule call. Embedding the concrete
// scheduler keeps its optional interfaces (ReplicaSetter, PrefetchSetter,
// CoScheduleSetter, PrefetchSource) visible to the head.
type tracedScheduler struct {
	*core.LocalityScheduler
	rec *recorder
}

func (s *tracedScheduler) Schedule(now units.Time, queue []*core.Job, head *core.HeadState) []core.Assignment {
	if !s.rec.on.Load() {
		return s.LocalityScheduler.Schedule(now, queue, head)
	}
	var first uint64
	if len(queue) > 0 {
		first = uint64(queue[0].ID)
	}
	start := time.Now()
	out := s.LocalityScheduler.Schedule(now, queue, head)
	s.rec.add(span{
		name: spanSchedule, start: s.rec.since(start), end: s.rec.since(time.Now()),
		msg: first, jobs: int32(len(queue)), client: -1, worker: true,
	})
	return out
}
