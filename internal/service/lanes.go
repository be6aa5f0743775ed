package service

import (
	"sync"
	"sync/atomic"
	"time"

	"vizsched/internal/transport"
)

// The worker's executor model (DESIGN.md §5.18). A session — one connection
// to a head — has a reader, which only decodes messages and files them, and
// two FIFO lanes: foreground for interactive tasks, background for batch
// tasks and prefetch directives. Each lane is drained by K executors, K the
// slot count of the head's hello ack and at least one: the serial worker is
// K = 1, the fractional one (§5.13) K > 1. Algorithm 1 promises interactive
// work is served at once and batch work only fills what is idle; the lanes
// keep that promise past the wire — an interactive task never queues behind
// a batch task, and a batch render that is already running stands aside for
// it at its next scanline (Worker.yield).

// work is one message filed into a lane: a task, or a prefetch directive
// (background lane only).
type work struct {
	msgID uint64
	task  TaskBody
	warm  *PrefetchBody // non-nil for a directive; task is unused then
}

// foreground is a worker's account of its interactive tasks in flight: from
// the moment the reader files one until its fragment is sent (or the session
// ends and drops it).
type foreground struct {
	mu   sync.Mutex
	cond sync.Cond
	// filed and done count the tasks ever filed and ever finished; the
	// difference is in flight. Counts rather than a level, so a waiter can
	// wait for the tasks it saw and no others.
	filed, done uint64
	// busy is how long there has been at least one task in flight, not
	// counting the stretch that began at since when there is one now.
	busy  time.Duration
	since time.Time
}

func (f *foreground) file() {
	f.mu.Lock()
	if f.filed == f.done {
		f.since = time.Now()
	}
	f.filed++
	f.mu.Unlock()
}

func (f *foreground) finish() {
	f.mu.Lock()
	f.done++
	if f.filed == f.done {
		f.busy += time.Since(f.since)
	}
	f.mu.Unlock()
	f.cond.Broadcast()
}

// clock reads the in-flight clock: the total time, so far, during which some
// interactive task was in flight. A batch task reads it when it starts and
// when it ends, and the difference is time it does not report as its own.
func (f *foreground) clock() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.filed == f.done {
		return f.busy
	}
	return f.busy + time.Since(f.since)
}

// wait blocks until the tasks in flight at the call have finished, and
// reports whether there were any. It does not wait for tasks filed later:
// under an interactive stream that never pauses, a background render still
// gets a scanline in between, and ends before its dispatch deadline.
func (f *foreground) wait() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	seen := f.filed
	if f.done >= seen {
		return false
	}
	for f.done < seen {
		f.cond.Wait()
	}
	return true
}

// session is one connection's reader, lanes and executors.
type session struct {
	w      *Worker
	conn   transport.Conn
	fg, bg *fifo[work]
	// started says the executors are running; reader-owned.
	started bool
	wg      sync.WaitGroup
	// ended tells the executors to drop, not run, what is still queued.
	ended atomic.Bool
	// sendErr is the first send an executor saw fail. shutdown says the head
	// ended the session itself, after which a failed send is no news;
	// reader-owned.
	errOnce  sync.Once
	sendErr  error
	shutdown bool
}

func newSession(w *Worker, conn transport.Conn) *session {
	return &session{w: w, conn: conn, fg: newFifo[work](), bg: newFifo[work]()}
}

// read files messages until the connection closes, the head says shutdown,
// or a receive fails, which is the error it returns.
func (s *session) read() error {
	w := s.w
	for {
		msg, err := s.conn.Recv()
		if err != nil {
			if err == transport.ErrClosed {
				return nil
			}
			return err
		}
		switch msg.Kind {
		case transport.KindShutdown:
			s.shutdown = true
			return nil
		case transport.KindHello:
			// The head's ack assigns (or confirms) this worker's node slot.
			var ack HelloBody
			if err := transport.Decode(msg.Body, &ack); err != nil {
				continue
			}
			w.node.Store(int64(ack.NodeID))
			w.shard.Store(int64(ack.Shard))
			w.slots.Store(int64(ack.Slots))
			if len(ack.Outstanding) > 0 {
				if err := w.replayRetained(s.conn, ack.Outstanding); err != nil {
					return err
				}
			}
		case transport.KindTask:
			var t TaskBody
			if err := transport.Decode(msg.Body, &t); err != nil {
				w.Logf("worker %s: bad task: %v", w.Name, err)
				continue
			}
			s.file(work{msgID: msg.ID, task: t})
		case transport.KindPrefetch:
			var p PrefetchBody
			if err := transport.Decode(msg.Body, &p); err != nil {
				w.Logf("worker %s: bad prefetch: %v", w.Name, err)
				continue
			}
			s.file(work{msgID: msg.ID, warm: &p})
		default:
			w.Logf("worker %s: unexpected %v message", w.Name, msg.Kind)
		}
	}
}

// file puts one piece of work in its lane, starting the executors at the
// first: the hello ack that sets K comes before any work.
func (s *session) file(it work) {
	if !s.started {
		s.started = true
		for k := max(1, s.w.Slots()); k > 0; k-- {
			s.wg.Add(2)
			go s.drain(s.fg, true)
			go s.drain(s.bg, false)
		}
	}
	if it.warm == nil && !it.task.Render.Batch {
		s.w.fg.file()
		s.fg.push(it)
		return
	}
	s.bg.push(it)
}

// drain is one executor: it runs its lane's work in arrival order until the
// lane closes. Work still queued when the session ends is dropped — the head
// has lost the connection and will dispatch it again — but it leaves the
// foreground account the way it came in.
func (s *session) drain(lane *fifo[work], foreground bool) {
	defer s.wg.Done()
	for {
		it, ok := lane.pop()
		if !ok {
			return
		}
		if !s.ended.Load() {
			s.run(it)
		}
		if foreground {
			s.w.fg.finish()
		}
	}
}

// run executes one piece of work and sends what it produced.
func (s *session) run(it work) {
	w := s.w
	var err error
	if it.warm != nil {
		err = send(s.conn, transport.KindPrefetchDone, it.msgID, w.prefetch(*it.warm))
	} else {
		err = w.runTask(s.conn, it.msgID, it.task)
	}
	if err != nil {
		// The connection died; the reader's Recv sees it too and returns.
		s.errOnce.Do(func() { s.sendErr = err })
		w.Logf("worker %s: J%d/T%d send failed: %v", w.Name, it.task.JobID, it.task.TaskIndex, err)
	}
}

// end closes the lanes and waits for the executors: running work finishes,
// queued work is dropped, and the foreground account is back where it was
// before the session. It returns the reader's error, or else the first send
// failure of a session the head did not shut down.
func (s *session) end(err error) error {
	s.ended.Store(true)
	s.fg.close()
	s.bg.close()
	s.wg.Wait()
	if err == nil && !s.shutdown {
		err = s.sendErr
	}
	return err
}
