package service

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vizsched/internal/core"
	"vizsched/internal/journal"
	"vizsched/internal/transport"
	"vizsched/internal/units"
)

// The tests in this file drive the head without its goroutine and without
// the wall clock: they boot a head over hand-held pipe peers, set its clock,
// and call step themselves. Nothing sleeps and nothing is awaited but a
// message the step before has already queued, so what the journal records —
// kinds, jobs, tasks, nodes and instants — is the same on every run.

// fakeClock is a settable Head.clock. finalize and Stats read the clock off
// the stepping goroutine, hence the atomic.
type fakeClock struct{ nanos atomic.Int64 }

func (c *fakeClock) now() time.Time { return time.Unix(1_000_000_000, c.nanos.Load()) }

// steppedHead is a booted head with no dispatcher goroutine: the test is the
// dispatcher.
type steppedHead struct {
	t     *testing.T
	h     *Head
	l     *headLoop
	clock fakeClock
	wal   bytes.Buffer
	// peers[k] is the worker's end of node k's connection; the test reads
	// there what the head sends. client is the far end of the one client
	// connection jobs are submitted on.
	peers              []transport.Conn
	client, headClient transport.Conn
}

func newSteppedHead(t *testing.T, nodes int, configure func(*Head)) *steppedHead {
	t.Helper()
	s := &steppedHead{t: t}
	s.h = NewHead(core.NewLocalityScheduler(2*units.Millisecond), testCatalog(t, 2), 64*units.MB, core.DefaultCostModel())
	quietHead(s.h)
	s.h.clock = s.clock.now
	s.h.rng = rand.New(rand.NewSource(1))
	s.h.Journal = journal.NewWriter(&s.wal, 1)
	configure(s.h)
	for k := 0; k < nodes; k++ {
		// A pipe buffers, so the hello can be said before anyone listens.
		headSide, workerSide := transport.Pipe()
		if err := send(workerSide, transport.KindHello, 0, HelloBody{Name: fmt.Sprintf("w%d", k)}); err != nil {
			t.Fatal(err)
		}
		if err := s.h.AddWorker(headSide); err != nil {
			t.Fatal(err)
		}
		if ack := recvBody[HelloBody](s, workerSide, transport.KindHello); ack.NodeID != k {
			t.Fatalf("hello ack names node %d, want %d", ack.NodeID, k)
		}
		s.peers = append(s.peers, workerSide)
	}
	var err error
	if s.l, err = s.h.boot(); err != nil {
		t.Fatal(err)
	}
	s.client, s.headClient = transport.Pipe()
	// Stop's half of the loop: shutdown handshakes, connections closed, and
	// with them the head's sender and reader goroutines.
	t.Cleanup(func() { s.l.step(event{kind: evStop}) })
	return s
}

// recvBody reads the next message on conn, which must be of the given kind,
// and decodes its body.
func recvBody[B any, PB interface {
	*B
	transport.BodyParser
}](s *steppedHead, conn transport.Conn, kind transport.Kind) B {
	s.t.Helper()
	var body B
	msg, err := conn.Recv()
	if err != nil {
		s.t.Fatalf("waiting for %v: %v", kind, err)
	}
	if msg.Kind != kind {
		s.t.Fatalf("got %v, want %v", msg.Kind, kind)
	}
	if err := transport.Decode(msg.Body, PB(&body)); err != nil {
		s.t.Fatal(err)
	}
	return body
}

// at moves the head's clock to d after boot.
func (s *steppedHead) at(d time.Duration) { s.clock.nanos.Store(int64(d)) }

// submit builds a job as HandleClient would and steps its arrival.
func (s *steppedHead) submit(msgID uint64, req RenderBody) *liveJob {
	s.t.Helper()
	if err := s.h.submit(s.headClient, msgID, req); err != nil {
		s.t.Fatal(err)
	}
	lj := <-s.h.jobCh
	s.l.step(event{kind: evArrival, lj: lj})
	return lj
}

// fromWorker steps a message from node's current connection.
func (s *steppedHead) fromWorker(node core.NodeID, kind transport.Kind, body transport.BodyAppender) {
	s.t.Helper()
	msg := transport.Message{Kind: kind}
	if body != nil {
		raw, err := transport.Encode(body)
		if err != nil {
			s.t.Fatal(err)
		}
		msg.Body = raw
	}
	s.l.step(event{kind: evWorker, work: workerEvent{node: node, gen: s.h.gens[node], msg: msg}})
}

func (s *steppedHead) beat(node core.NodeID) { s.fromWorker(node, transport.KindHeartbeat, nil) }

// wantTasks reads n tasks off node's connection and returns their
// (job, task) names.
func (s *steppedHead) wantTasks(node core.NodeID, n int) []TaskRef {
	s.t.Helper()
	var got []TaskRef
	for len(got) < n {
		tb := recvBody[TaskBody](s, s.peers[node], transport.KindTask)
		got = append(got, TaskRef{JobID: tb.JobID, TaskIndex: tb.TaskIndex})
	}
	return got
}

// wantJournal requires the write-ahead log to be exactly these records, each
// written "kind job task node at".
func (s *steppedHead) wantJournal(want ...string) {
	s.t.Helper()
	if err := s.h.Journal.Sync(); err != nil {
		s.t.Fatal(err)
	}
	recs, err := journal.ReadAll(bytes.NewReader(s.wal.Bytes()))
	if err != nil {
		s.t.Fatal(err)
	}
	var got []string
	for _, r := range recs {
		got = append(got, fmt.Sprintf("%v %d %d %d %v", r.Kind, r.Job, r.Task, r.Node, time.Duration(r.At)))
	}
	if !slices.Equal(got, want) {
		s.t.Errorf("journal:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// The health ladder: silence makes a node suspect, which keeps new work off
// it; traffic makes it up again; longer silence makes it down, which closes
// its connection and returns what it owed to the queue for the survivor; a
// rejoin repairs it, and the repair time is the clock's, to the nanosecond.
func TestHeadLoopHealthLadder(t *testing.T) {
	s := newSteppedHead(t, 2, func(h *Head) {
		h.SuspectAfter = 300 * time.Millisecond
		h.DownAfter = time.Second
		h.DeadlineFactor = 0 // silence alone moves this script
	})
	frame := RenderBody{Dataset: "plume", Dist: 2.4, Width: 16, Height: 16}

	// An idle head spreads a cold frame's two bricks over its two nodes.
	a := s.submit(1, frame)
	if got := a.nodes; !slices.Equal(got, []core.NodeID{0, 1}) {
		t.Fatalf("first frame placed on nodes %v, want one brick each", got)
	}
	s.wantTasks(0, 1)
	s.wantTasks(1, 1)

	// 400 ms of silence from node 0: suspect, and the next frame avoids it.
	s.at(400 * time.Millisecond)
	s.beat(1)
	s.l.step(event{kind: evCheck})
	if got := s.h.WorkerHealth(0); got != core.HealthSuspect {
		t.Fatalf("node 0 after 400 ms of silence: %v, want suspect", got)
	}
	frame.Angle = 0.5
	b := s.submit(2, frame)
	if got := b.nodes; !slices.Equal(got, []core.NodeID{1, 1}) {
		t.Errorf("frame placed on nodes %v while node 0 is suspect, want both bricks on node 1", got)
	}
	s.wantTasks(1, 2)

	// One heartbeat rehabilitates it.
	s.at(450 * time.Millisecond)
	s.beat(0)
	if got := s.h.WorkerHealth(0); got != core.HealthUp {
		t.Fatalf("node 0 after a heartbeat: %v, want up", got)
	}

	// Silent past DownAfter: down, its connection closed, its brick of the
	// first frame back in the queue — and on the survivor at the next tick.
	s.at(1500 * time.Millisecond)
	s.beat(1)
	s.l.step(event{kind: evCheck})
	if got := s.h.WorkerHealth(0); got != core.HealthDown {
		t.Fatalf("node 0 after 1.05 s of silence: %v, want down", got)
	}
	if _, err := s.peers[0].Recv(); err == nil {
		t.Error("node 0's connection is still open after it was declared down")
	}
	if len(s.l.queue) != 1 || s.l.queue[0] != a || a.job.Remaining != 1 {
		t.Fatalf("queue after node 0 went down: %d jobs, first frame has %d tasks to dispatch; want it alone with 1", len(s.l.queue), a.job.Remaining)
	}
	s.l.step(event{kind: evTick})
	if got := s.wantTasks(1, 1); got[0] != (TaskRef{JobID: uint64(a.job.ID), TaskIndex: 0}) {
		t.Errorf("survivor was sent %+v, want the dead node's brick of the first frame", got[0])
	}
	if len(s.l.queue) != 0 {
		t.Errorf("%d jobs still queued after the tick", len(s.l.queue))
	}

	// A rejoin a second after the verdict repairs the slot.
	s.at(2500 * time.Millisecond)
	headSide, workerSide := transport.Pipe()
	s.l.step(event{kind: evRejoin, rejoin: rejoinEvent{conn: headSide, hello: HelloBody{Name: "w0", NodeID: 0, Rejoin: true}}})
	if ack := recvBody[HelloBody](s, workerSide, transport.KindHello); ack.NodeID != 0 {
		t.Errorf("rejoin ack names node %d, want 0", ack.NodeID)
	}
	if got := s.h.WorkerHealth(0); got != core.HealthUp {
		t.Errorf("node 0 after rejoin: %v, want up", got)
	}
	if r := s.h.Recovery(); r.MTTR != time.Second || r.WorkersDown != 1 || r.WorkersRejoined != 1 || r.TasksRedispatched != 1 {
		t.Errorf("recovery = %+v, want MTTR exactly 1s over one down, one rejoin, one task re-dispatched", r)
	}

	s.wantJournal(
		"admit 1 -1 -1 0s",
		"dispatch 1 0 0 0s",
		"dispatch 1 1 1 0s",
		"suspect 0 -1 0 400ms",
		"admit 2 -1 -1 400ms",
		"dispatch 2 1 1 400ms", // node 1 holds brick 1 already: cached work first
		"dispatch 2 0 1 400ms",
		"up 0 -1 0 450ms",
		"rehome 0 -1 0 1.5s",
		"dispatch 1 0 1 1.5s",
		"repair 0 -1 0 2.5s",
	)
}

// Deadline, backoff, give-up: a task with no fragment by its deadline is held
// for a backoff, requeued and re-dispatched, and when its retries are spent
// the job fails with one error reply. A fragment that turns up between the
// requeue and the re-dispatch is taken, not rendered again.
func TestHeadLoopDeadlineBackoffGiveUp(t *testing.T) {
	s := newSteppedHead(t, 1, func(h *Head) {
		h.DeadlineFactor = 4
		h.MinDeadline = time.Second // 4× a cold brick's prediction is far below it
		h.RetryBackoff = 100 * time.Millisecond
		h.MaxRetries = 2
		h.SuspectAfter = 500 * time.Millisecond
		h.DownAfter = 0
	})
	lj := s.submit(7, RenderBody{Dataset: "plume", Dist: 2.4, Width: 16, Height: 16})
	s.wantTasks(0, 2)

	// A nanosecond short of the deadline nothing is overdue; on it both are,
	// and each is held for RetryBackoff plus up to half as much jitter.
	s.at(time.Second - 1)
	s.beat(0)
	s.l.step(event{kind: evCheck})
	if lj.retries[0] != 0 || lj.retries[1] != 0 {
		t.Fatalf("retries = %v before the deadline", lj.retries)
	}
	s.at(time.Second)
	s.l.step(event{kind: evCheck})
	for i, at := range lj.retryAt {
		if hold := at.Sub(s.clock.now()); lj.retries[i] != 1 || hold < 100*time.Millisecond || hold > 150*time.Millisecond {
			t.Fatalf("task %d at its deadline: retries = %d, held for %v; want 1 and 100–150ms", i, lj.retries[i], hold)
		}
	}

	// The holds run out while the only node is suspect: both tasks are back
	// in the queue and there is nowhere to send them.
	s.at(1600 * time.Millisecond)
	s.l.step(event{kind: evCheck})
	if s.h.WorkerHealth(0) != core.HealthSuspect || lj.job.Remaining != 2 || len(s.l.queue) != 1 {
		t.Fatalf("after the holds: node %v, %d tasks to dispatch, %d jobs queued; want suspect, 2, 1",
			s.h.WorkerHealth(0), lj.job.Remaining, len(s.l.queue))
	}

	// The original of task 0 completes after all: reclaimed. Its traffic
	// also clears the node, and the tick re-dispatches task 1 alone.
	s.at(1700 * time.Millisecond)
	s.fromWorker(0, transport.KindFragment, &FragmentBody{JobID: uint64(lj.job.ID), TaskIndex: 0, ExecNanos: 1_000_000})
	if !lj.job.Tasks[0].Assigned || lj.frags[0] == nil || lj.job.Remaining != 1 {
		t.Fatalf("late fragment not reclaimed: assigned %v, stored %v, %d tasks to dispatch",
			lj.job.Tasks[0].Assigned, lj.frags[0] != nil, lj.job.Remaining)
	}
	s.l.step(event{kind: evTick})
	if got := s.wantTasks(0, 1); got[0].TaskIndex != 1 {
		t.Fatalf("re-dispatched task %d, want 1", got[0].TaskIndex)
	}

	// Second miss: twice the hold, then re-dispatched by the check itself.
	s.at(2700 * time.Millisecond)
	s.beat(0)
	s.l.step(event{kind: evCheck})
	if hold := lj.retryAt[1].Sub(s.clock.now()); lj.retries[1] != 2 || hold < 200*time.Millisecond || hold > 300*time.Millisecond {
		t.Fatalf("second miss: retries = %d, held for %v; want 2 and 200–300ms", lj.retries[1], hold)
	}
	s.at(3100 * time.Millisecond)
	s.beat(0)
	s.l.step(event{kind: evCheck})
	s.wantTasks(0, 1)

	// Third miss: the budget of 2 retries is spent and the job fails, once.
	s.at(4100 * time.Millisecond)
	s.beat(0)
	s.l.step(event{kind: evCheck})
	if len(s.l.inflight) != 0 || len(s.l.queue) != 0 {
		t.Errorf("after give-up: %d jobs in flight, %d queued", len(s.l.inflight), len(s.l.queue))
	}
	s.headClient.Close()
	if eb := recvBody[ErrorBody](s, s.client, transport.KindError); !strings.Contains(eb.Msg, "task 1 lost 3 times") {
		t.Errorf("error reply %q, want task 1 lost 3 times", eb.Msg)
	}
	if msg, err := s.client.Recv(); err == nil {
		t.Errorf("a second reply followed the failure: %v", msg.Kind)
	}
	if st := s.h.Stats(); st.JobsFailed != 1 || st.TasksRedispatched != 3 {
		t.Errorf("JobsFailed = %d, TasksRedispatched = %d, want 1 and 3", st.JobsFailed, st.TasksRedispatched)
	}

	s.wantJournal(
		"admit 1 -1 -1 0s",
		"dispatch 1 0 0 0s",
		"dispatch 1 1 0 0s",
		"suspect 0 -1 0 1.6s",
		"up 0 -1 0 1.7s",
		"complete 1 0 0 1.7s",
		"dispatch 1 1 0 1.7s",
		"dispatch 1 1 0 3.1s",
		"fail 1 -1 -1 4.1s",
	)
}

// A node that goes down owes the head a brick of each of three frames; they
// go back to the queue, and so to the survivor, oldest frame first — on every
// run, not in the in-flight map's order.
func TestHeadLoopNodeDownRequeuesInAdmissionOrder(t *testing.T) {
	s := newSteppedHead(t, 2, func(h *Head) { h.DeadlineFactor = 0 })
	frame := RenderBody{Dataset: "plume", Dist: 2.4, Width: 16, Height: 16}
	for i := 1; i <= 3; i++ {
		s.submit(uint64(i), frame)
		s.l.step(event{kind: evTick})
		s.wantTasks(0, 1)
		s.wantTasks(1, 1)
	}
	s.at(time.Second)
	s.l.step(event{kind: evWorker, work: workerEvent{node: 0, gen: s.h.gens[0], err: io.EOF}})
	s.l.step(event{kind: evTick})
	s.wantTasks(1, 3)

	s.wantJournal(
		"admit 1 -1 -1 0s",
		"dispatch 1 0 0 0s",
		"dispatch 1 1 1 0s",
		"admit 2 -1 -1 0s",
		"dispatch 2 0 0 0s",
		"dispatch 2 1 1 0s",
		"admit 3 -1 -1 0s",
		"dispatch 3 0 0 0s",
		"dispatch 3 1 1 0s",
		"rehome 0 -1 0 1s",
		"dispatch 1 0 1 1s",
		"dispatch 2 0 1 1s",
		"dispatch 3 0 1 1s",
	)
}
