package service

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vizsched/internal/core"
	"vizsched/internal/fracshare"
	"vizsched/internal/hastate"
	"vizsched/internal/journal"
	"vizsched/internal/qos"
	"vizsched/internal/transport"
	"vizsched/internal/units"
	"vizsched/internal/volume"
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
	clock *fakeClock
	wal   bytes.Buffer
	// peers[k] is the worker's end of node k's connection; the test reads
	// there what the head sends. client is the far end of the one client
	// connection jobs are submitted on.
	peers              []transport.Conn
	client, headClient transport.Conn
}

// newHead builds the stepped head on clock, unbooted.
func newHead(t *testing.T, clock *fakeClock, configure func(*Head)) *steppedHead {
	s := &steppedHead{t: t, clock: clock}
	s.h = NewHead(core.NewLocalityScheduler(2*units.Millisecond), testCatalog(t, 2), 64*units.MB, core.DefaultCostModel())
	quietHead(s.h)
	s.h.clock = clock.now
	s.h.rng = rand.New(rand.NewSource(1))
	s.h.Journal = journal.NewWriter(&s.wal, 1)
	configure(s.h)
	return s
}

// boot boots the head from st, opens its client connection, and leaves Stop's
// half of the loop to the test's cleanup: shutdown handshakes, connections
// closed, and with them the head's sender and reader goroutines.
func (s *steppedHead) boot(st *hastate.State) {
	s.t.Helper()
	var err error
	if s.l, err = s.h.boot(st); err != nil {
		s.t.Fatal(err)
	}
	s.client, s.headClient = transport.Pipe()
	s.t.Cleanup(func() { s.l.step(event{kind: evStop}) })
}

func newSteppedHead(t *testing.T, nodes int, configure func(*Head)) *steppedHead {
	t.Helper()
	s := newHead(t, new(fakeClock), configure)
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
	st, err := s.h.fresh()
	if err != nil {
		t.Fatal(err)
	}
	s.boot(st)
	return s
}

// standby boots a second head from st on s's clock: the recovered head of a
// takeover, stepped like the first. Its peers are filled in by resync.
func (s *steppedHead) standby(st *hastate.State, configure func(*Head)) *steppedHead {
	s.t.Helper()
	sb := newHead(s.t, s.clock, configure)
	sb.peers = make([]transport.Conn, len(st.Tables.Available))
	sb.boot(st)
	return sb
}

// resync steps a worker's resync hello — what it caches and what results it
// retains, for the slot hello.NodeID — and returns the head's ack. The
// hello's connection becomes the node's peer.
func (s *steppedHead) resync(hello HelloBody) HelloBody {
	s.t.Helper()
	hello.Rejoin, hello.Resync = true, true
	headSide, workerSide := transport.Pipe()
	s.step(event{kind: evRejoin, rejoin: rejoinEvent{conn: headSide, hello: hello}})
	s.peers[hello.NodeID] = workerSide
	return recvBody[HelloBody](s, workerSide, transport.KindHello)
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

// step steps ev on the head, then holds every in-flight job's task records
// to the job they describe and to the busy-share account: the job's
// Remaining counts the queued records, core.Task.Assigned is set exactly on
// the records that are not queued, got counts the done ones, and with
// FracShare on each node's in-flight count is the records counting on it.
func (s *steppedHead) step(ev event) {
	s.t.Helper()
	s.l.step(ev)
	counted := make([]int, len(s.h.slots))
	for _, lj := range s.l.byAdmission() {
		queued, done := 0, 0
		for i := range lj.tasks {
			t := &lj.tasks[i]
			switch t.state {
			case taskQueued:
				queued++
			case taskDone:
				done++
			}
			if lj.job.Tasks[i].Assigned == (t.state == taskQueued) {
				s.t.Fatalf("job %d task %d: Assigned %v in state %d", lj.job.ID, i, lj.job.Tasks[i].Assigned, t.state)
			}
			if t.counts {
				counted[t.node]++
			}
		}
		if lj.job.Remaining != queued || lj.got != done {
			s.t.Fatalf("job %d: Remaining %d over %d queued records, got %d over %d done", lj.job.ID, lj.job.Remaining, queued, lj.got, done)
		}
	}
	if f := s.h.frac; f != nil {
		f.mu.Lock()
		inflight := slices.Clone(f.inflight)
		f.mu.Unlock()
		if !slices.Equal(inflight, counted) {
			s.t.Fatalf("busy-share account in flight %v, records counting %v", inflight, counted)
		}
	}
}

// nodesOf lists the node each task of lj was last dispatched to.
func nodesOf(lj *liveJob) []core.NodeID {
	nodes := make([]core.NodeID, len(lj.tasks))
	for i := range lj.tasks {
		nodes[i] = lj.tasks[i].node
	}
	return nodes
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
	s.step(event{kind: evArrival, lj: lj})
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
	s.step(event{kind: evWorker, work: workerEvent{node: node, gen: s.h.slots[node].gen, msg: msg}})
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
	if got := nodesOf(a); !slices.Equal(got, []core.NodeID{0, 1}) {
		t.Fatalf("first frame placed on nodes %v, want one brick each", got)
	}
	s.wantTasks(0, 1)
	s.wantTasks(1, 1)

	// 400 ms of silence from node 0: suspect, and the next frame avoids it.
	s.at(400 * time.Millisecond)
	s.beat(1)
	s.step(event{kind: evCheck})
	if got := s.h.WorkerHealth(0); got != core.HealthSuspect {
		t.Fatalf("node 0 after 400 ms of silence: %v, want suspect", got)
	}
	frame.Angle = 0.5
	b := s.submit(2, frame)
	if got := nodesOf(b); !slices.Equal(got, []core.NodeID{1, 1}) {
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
	s.step(event{kind: evCheck})
	if got := s.h.WorkerHealth(0); got != core.HealthDown {
		t.Fatalf("node 0 after 1.05 s of silence: %v, want down", got)
	}
	if _, err := s.peers[0].Recv(); err == nil {
		t.Error("node 0's connection is still open after it was declared down")
	}
	if q := s.l.backlog.Jobs(); len(q) != 1 || q[0] != a.job || a.job.Remaining != 1 {
		t.Fatalf("queue after node 0 went down: %d jobs, first frame has %d tasks to dispatch; want it alone with 1", len(q), a.job.Remaining)
	}
	s.step(event{kind: evTick})
	if got := s.wantTasks(1, 1); got[0] != (TaskRef{JobID: uint64(a.job.ID), TaskIndex: 0}) {
		t.Errorf("survivor was sent %+v, want the dead node's brick of the first frame", got[0])
	}
	if s.l.backlog.Len() != 0 {
		t.Errorf("%d jobs still queued after the tick", s.l.backlog.Len())
	}

	// A rejoin a second after the verdict repairs the slot.
	s.at(2500 * time.Millisecond)
	headSide, workerSide := transport.Pipe()
	s.step(event{kind: evRejoin, rejoin: rejoinEvent{conn: headSide, hello: HelloBody{Name: "w0", NodeID: 0, Rejoin: true}}})
	if ack := recvBody[HelloBody](s, workerSide, transport.KindHello); ack.NodeID != 0 {
		t.Errorf("rejoin ack names node %d, want 0", ack.NodeID)
	}
	if got := s.h.WorkerHealth(0); got != core.HealthUp {
		t.Errorf("node 0 after rejoin: %v, want up", got)
	}
	if r := s.h.Stats(); r.MTTRSeconds != 1 || r.WorkersDown != 1 || r.WorkersRejoined != 1 || r.TasksRedispatched != 1 {
		t.Errorf("MTTR = %vs, down %d, rejoined %d, re-dispatched %d; want MTTR exactly 1s over one down, one rejoin, one task re-dispatched",
			r.MTTRSeconds, r.WorkersDown, r.WorkersRejoined, r.TasksRedispatched)
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
	s.step(event{kind: evCheck})
	if lj.tasks[0].retries != 0 || lj.tasks[1].retries != 0 {
		t.Fatalf("retries = %d, %d before the deadline", lj.tasks[0].retries, lj.tasks[1].retries)
	}
	s.at(time.Second)
	s.step(event{kind: evCheck})
	for i, lt := range lj.tasks {
		if hold := lt.due.Sub(s.clock.now()); lt.retries != 1 || hold < 100*time.Millisecond || hold > 150*time.Millisecond {
			t.Fatalf("task %d at its deadline: retries = %d, held for %v; want 1 and 100–150ms", i, lt.retries, hold)
		}
	}

	// The holds run out while the only node is suspect: both tasks are back
	// in the queue and there is nowhere to send them.
	s.at(1600 * time.Millisecond)
	s.step(event{kind: evCheck})
	if s.h.WorkerHealth(0) != core.HealthSuspect || lj.job.Remaining != 2 || s.l.backlog.Len() != 1 {
		t.Fatalf("after the holds: node %v, %d tasks to dispatch, %d jobs queued; want suspect, 2, 1",
			s.h.WorkerHealth(0), lj.job.Remaining, s.l.backlog.Len())
	}

	// The original of task 0 completes after all: reclaimed. Its traffic
	// also clears the node, and the tick re-dispatches task 1 alone.
	s.at(1700 * time.Millisecond)
	s.fromWorker(0, transport.KindFragment, &FragmentBody{JobID: uint64(lj.job.ID), TaskIndex: 0, ExecNanos: 1_000_000})
	if !lj.job.Tasks[0].Assigned || lj.tasks[0].frag == nil || lj.job.Remaining != 1 {
		t.Fatalf("late fragment not reclaimed: assigned %v, stored %v, %d tasks to dispatch",
			lj.job.Tasks[0].Assigned, lj.tasks[0].frag != nil, lj.job.Remaining)
	}
	s.step(event{kind: evTick})
	if got := s.wantTasks(0, 1); got[0].TaskIndex != 1 {
		t.Fatalf("re-dispatched task %d, want 1", got[0].TaskIndex)
	}

	// Second miss: twice the hold, then re-dispatched by the check itself.
	s.at(2700 * time.Millisecond)
	s.beat(0)
	s.step(event{kind: evCheck})
	if hold := lj.tasks[1].due.Sub(s.clock.now()); lj.tasks[1].retries != 2 || hold < 200*time.Millisecond || hold > 300*time.Millisecond {
		t.Fatalf("second miss: retries = %d, held for %v; want 2 and 200–300ms", lj.tasks[1].retries, hold)
	}
	s.at(3100 * time.Millisecond)
	s.beat(0)
	s.step(event{kind: evCheck})
	s.wantTasks(0, 1)

	// Third miss: the budget of 2 retries is spent and the job fails, once.
	s.at(4100 * time.Millisecond)
	s.beat(0)
	s.step(event{kind: evCheck})
	if len(s.l.inflight) != 0 || s.l.backlog.Len() != 0 {
		t.Errorf("after give-up: %d jobs in flight, %d queued", len(s.l.inflight), s.l.backlog.Len())
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
		s.step(event{kind: evTick})
		s.wantTasks(0, 1)
		s.wantTasks(1, 1)
	}
	s.at(time.Second)
	s.step(event{kind: evWorker, work: workerEvent{node: 0, gen: s.h.slots[0].gen, err: io.EOF}})
	s.step(event{kind: evTick})
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

// Admission at the bound, journaled, with QoS off and on: MaxQueue is 1 and
// the only node is held busy by the first frame. The second frame waits, the
// third crowds it out, and a batch job is refused. The crowded frame's fail
// record comes before the admit of the frame that displaced it, and the
// refused batch job leaves no record at all.
func TestHeadLoopAdmissionAtBound(t *testing.T) {
	for _, tc := range []struct {
		name string
		qos  *qos.Config
	}{
		{"qos=off", nil},
		{"qos=on", &qos.Config{InteractiveRate: 1000, InteractiveBurst: 1000, BatchRate: 1000, BatchBurst: 1000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newSteppedHead(t, 1, func(h *Head) {
				h.sched = watched(hour, true)
				h.DeadlineFactor = 0
				h.MaxQueue = 1
				h.QoS = tc.qos
			})
			frame := RenderBody{Dataset: "plume", Dist: 2.4, Width: 16, Height: 16}
			s.submit(1, frame)
			s.wantTasks(0, 2)
			s.submit(2, frame)
			s.submit(3, frame)
			if eb := recvBody[ErrorBody](s, s.client, transport.KindError); eb.Msg != "shed under overload" {
				t.Errorf("the waiting frame got %q, want the overload shed", eb.Msg)
			}
			frame.Batch = true
			s.submit(4, frame)
			if eb := recvBody[ErrorBody](s, s.client, transport.KindError); !strings.Contains(eb.Msg, "overloaded") {
				t.Errorf("the batch job got %q, want the overloaded refusal", eb.Msg)
			}
			s.step(event{kind: evCheck})
			if st := s.h.Stats(); st.JobsShed != 2 || st.QueueDepth != 1 {
				t.Errorf("JobsShed %d, queue depth %d; want 2 and 1", st.JobsShed, st.QueueDepth)
			}
			s.wantJournal(
				"admit 1 -1 -1 0s",
				"dispatch 1 0 0 0s",
				"dispatch 1 1 0 0s",
				"admit 2 -1 -1 0s",
				"fail 2 -1 -1 0s",
				"admit 3 -1 -1 0s",
			)
		})
	}
}

// blindScheduler places every task it is shown on one node, marked as a
// core.Scheduler must, whether or not the node is alive.
type blindScheduler struct{ node core.NodeID }

func (blindScheduler) Name() string          { return "blind" }
func (blindScheduler) Trigger() core.Trigger { return core.Periodic }
func (blindScheduler) Cycle() units.Duration { return 2 * units.Millisecond }

func (s blindScheduler) Schedule(now units.Time, queue []*core.Job, head *core.HeadState) []core.Assignment {
	var out []core.Assignment
	for _, j := range queue {
		for i := range j.Tasks {
			if t := &j.Tasks[i]; !t.Assigned {
				t.Assigned = true
				out = append(out, core.Assignment{Task: t, Node: s.node})
			}
		}
	}
	return out
}

// A scheduler that places a task on a node the head has stepped down breaks
// its contract, and the pass refuses it as the simulator's does: the tick
// panics, naming the scheduler and the node, before a dispatch is journaled
// or the task sent to the dead node's closed sender.
func TestHeadLoopSchedulerContract(t *testing.T) {
	s := newSteppedHead(t, 2, func(h *Head) {
		h.sched = blindScheduler{node: 1}
		h.DeadlineFactor = 0
	})
	s.step(event{kind: evWorker, work: workerEvent{node: 1, gen: s.h.slots[1].gen, err: io.EOF}})
	s.submit(1, RenderBody{Dataset: "plume", Dist: 2.4, Width: 16, Height: 16, Batch: true})
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "scheduler blind") || !strings.Contains(msg, "unavailable node 1") {
			t.Errorf("a tick placing a task on down node 1 panicked with %q, want the scheduler and the node named", msg)
		}
		s.wantJournal("rehome 0 -1 1 0s", "admit 1 -1 -1 0s")
	}()
	s.step(event{kind: evTick})
}

// A crash at one cut, recovered on the stepped head: of a keyed frame's two
// bricks, node 0's lands and is journaled, and then the head dies. A standby
// booted from the genesis snapshot and the journal, on the same clock, takes
// both workers' resyncs and the client's re-submission of the key. Node 0's
// retained fragment completes its task without a re-dispatch; node 1's task,
// lost with the head, goes out again when its reconnect grace runs out; and
// the client gets one result.
func TestHeadLoopRecoversAtCut(t *testing.T) { recoverAtCut(t, func(*Head) {}) }

// recoverAtCut runs TestHeadLoopRecoversAtCut's script on heads that more
// also configures, and returns the standby.
func recoverAtCut(t *testing.T, more func(*Head)) *steppedHead {
	configure := func(h *Head) {
		h.DeadlineFactor = 4
		h.MinDeadline = time.Second
		h.RetryBackoff = 100 * time.Millisecond
		h.SuspectAfter, h.DownAfter = 0, 0 // deadlines alone move this script
		more(h)
	}
	s := newSteppedHead(t, 2, configure)
	reply := make(chan *hastate.Snapshot, 1)
	s.step(event{kind: evSnapshot, snap: reply})
	genesis := <-reply

	frame := RenderBody{Dataset: "plume", Dist: 2.4, Width: 16, Height: 16, Key: 42}
	a := s.submit(1, frame)
	if !slices.Equal(nodesOf(a), []core.NodeID{0, 1}) {
		t.Fatalf("frame placed on nodes %v, want one brick each", nodesOf(a))
	}
	s.wantTasks(0, 1)
	s.wantTasks(1, 1)
	s.at(10 * time.Millisecond)
	frag0 := &FragmentBody{JobID: uint64(a.job.ID), TaskIndex: 0, ExecNanos: 4_000_000}
	s.fromWorker(0, transport.KindFragment, frag0)
	s.wantJournal(
		"admit 1 -1 -1 0s",
		"dispatch 1 0 0 0s",
		"dispatch 1 1 1 0s",
		"complete 1 0 0 10ms",
	)

	// The cut.
	s.step(event{kind: evCrash})
	recs, err := journal.ReadAll(bytes.NewReader(s.wal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	st, err := hastate.Replay(genesis, recs, core.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	sb := s.standby(st, configure)
	lj := sb.l.inflight[a.job.ID]
	if lj == nil {
		t.Fatal("the standby recovered no job 1")
	}

	// Node 0 still caches brick 0 and retains its result, which the ack asks
	// it to replay; node 1 lost its render with the head.
	ack := sb.resync(HelloBody{Name: "w0", NodeID: 0, Cached: []ChunkRef{{Dataset: "plume", Index: 0}}, Completed: []TaskRef{{JobID: 1, TaskIndex: 0}}})
	if want := []TaskRef{{JobID: 1, TaskIndex: 0}}; !slices.Equal(ack.Outstanding, want) {
		t.Errorf("node 0's resync ack lists %v outstanding, want %v", ack.Outstanding, want)
	}
	sb.fromWorker(0, transport.KindFragment, frag0)
	ack = sb.resync(HelloBody{Name: "w1", NodeID: 1})
	if want := []TaskRef{{JobID: 1, TaskIndex: 1}}; !slices.Equal(ack.Outstanding, want) {
		t.Errorf("node 1's resync ack lists %v outstanding, want %v", ack.Outstanding, want)
	}

	// The client re-submits its key and is re-attached to the recovered job.
	sb.submit(1, frame)
	if got := sb.h.Stats().JobsReattached; got != 1 {
		t.Fatalf("re-submission re-attached %d jobs, want 1", got)
	}

	// Node 1's task misses its grace, is held for the backoff and goes out
	// again; its fragment completes the frame.
	s.at(1010 * time.Millisecond)
	sb.l.step(event{kind: evCheck})
	s.at(1200 * time.Millisecond)
	sb.l.step(event{kind: evCheck})
	node := lj.tasks[1].node
	if got := sb.wantTasks(node, 1); got[0] != (TaskRef{JobID: 1, TaskIndex: 1}) {
		t.Fatalf("node %d was sent %+v, want task 1 of job 1", node, got[0])
	}
	s.at(1250 * time.Millisecond)
	sb.fromWorker(node, transport.KindFragment, &FragmentBody{JobID: 1, TaskIndex: 1, ExecNanos: 4_000_000})
	recvBody[ResultBody](sb, sb.client, transport.KindResult)
	sb.headClient.Close()
	if msg, err := sb.client.Recv(); err == nil {
		t.Errorf("a second reply followed the result: %v", msg.Kind)
	}
	if err := sb.h.state.Validate(); err != nil {
		t.Errorf("recovered tables: %v", err)
	}

	// Neither brick of the frame rendered twice: task 0 was never dispatched
	// again, task 1 once.
	sb.wantJournal(
		"suspect 0 -1 0 10ms",
		"suspect 0 -1 1 10ms",
		"resync 0 -1 0 10ms",
		"up 0 -1 0 10ms",
		"resync 0 -1 1 10ms",
		"up 0 -1 1 10ms",
		fmt.Sprintf("dispatch 1 1 %d 1.2s", node),
		fmt.Sprintf("complete 1 1 %d 1.25s", node),
	)
	return sb
}

// The busy-share account follows the head's task records: whatever path a
// brick takes — re-dispatched past a deadline, its job failed by a worker,
// migrated by a drain, or recovered by a standby — once every frame is
// settled no node counts a task in flight, and the account never completes
// more tasks than it handed out. Each script lands a fragment the head no
// longer waits for on a node it no longer counts.
func TestHeadLoopInFlightAccount(t *testing.T) {
	frac := func(h *Head) { h.FracShare = &fracshare.Config{Slots: 1} }
	settled := func(t *testing.T, s *steppedHead) *FracShareSnapshot {
		t.Helper()
		fs := s.h.Stats().FracShare
		if !slices.Equal(fs.NodeInFlight, make([]int, len(s.h.slots))) || fs.TasksCompleted > fs.TasksDispatched {
			t.Errorf("settled account: in flight %v, %d dispatched, %d completed; want none in flight and no more completed than dispatched",
				fs.NodeInFlight, fs.TasksDispatched, fs.TasksCompleted)
		}
		return fs
	}
	frame := RenderBody{Dataset: "plume", Dist: 2.4, Width: 16, Height: 16}

	// Node 0 goes quiet holding brick 0, which misses its deadline while
	// node 0 is suspect and is re-dispatched to node 1; then node 0's
	// original lands. Node 1 was busy 10 ms with brick 1 and 100 ms with
	// the duplicate, of 5 s.
	t.Run("deadline", func(t *testing.T) {
		s := newSteppedHead(t, 2, func(h *Head) {
			frac(h)
			h.MinDeadline = time.Second
			h.RetryBackoff = 100 * time.Millisecond
			h.SuspectAfter, h.DownAfter = 500*time.Millisecond, time.Minute
		})
		a := s.submit(1, frame)
		s.wantTasks(0, 1)
		s.wantTasks(1, 1)
		s.at(10 * time.Millisecond)
		s.frags(a, 1)
		s.at(time.Second)
		s.beat(1)
		s.step(event{kind: evCheck})
		s.at(1200 * time.Millisecond)
		s.beat(1)
		s.step(event{kind: evCheck})
		if got := s.wantTasks(1, 1); got[0] != (TaskRef{JobID: uint64(a.job.ID), TaskIndex: 0}) {
			t.Fatalf("node 1 was sent %+v, want brick 0 of job 1", got[0])
		}
		s.at(1300 * time.Millisecond)
		s.fromWorker(0, transport.KindFragment, &FragmentBody{JobID: uint64(a.job.ID), TaskIndex: 0, ExecNanos: 4_000_000})
		recvBody[ResultBody](s, s.client, transport.KindResult)
		s.at(5 * time.Second)
		if fs := settled(t, s); math.Abs(fs.NodeBusyPct[1]-2.2) > 1e-9 {
			t.Errorf("node 1 busy %v%% of 5 s, want 2.2%%: 110 ms", fs.NodeBusyPct[1])
		}
	})

	// Node 0 reports an error on its brick, which fails the job while
	// node 1 still renders the other; that fragment then lands.
	t.Run("worker error", func(t *testing.T) {
		s := newSteppedHead(t, 2, frac)
		a := s.submit(1, frame)
		s.wantTasks(0, 1)
		s.wantTasks(1, 1)
		raw, err := transport.Encode(&ErrorBody{Msg: "render failed"})
		if err != nil {
			t.Fatal(err)
		}
		s.step(event{kind: evWorker, work: workerEvent{node: 0, gen: s.h.slots[0].gen,
			msg: transport.Message{Kind: transport.KindError, ID: uint64(a.job.ID), Body: raw}}})
		recvBody[ErrorBody](s, s.client, transport.KindError)
		s.frags(a, 1)
		if fs := settled(t, s); fs.TasksDispatched != 2 || fs.TasksCompleted != 0 {
			t.Errorf("%d dispatched, %d completed; want 2 and 0", fs.TasksDispatched, fs.TasksCompleted)
		}
	})

	// A drain migrates node 1's batch brick to node 0, and node 1's
	// original lands before node 0's copy.
	t.Run("drain", func(t *testing.T) {
		s := drainingHead(t, 0)
		batch, frame := busyOnBoth(s)
		s.at(100 * time.Millisecond)
		s.step(event{kind: evCheck})
		recvBody[PrefetchBody](s, s.peers[0], transport.KindPrefetch)
		if got := s.wantTasks(0, 1); got[0] != (TaskRef{JobID: uint64(batch.job.ID), TaskIndex: 1}) {
			t.Fatalf("survivor was sent %+v, want the victim's batch brick", got[0])
		}
		s.at(150 * time.Millisecond)
		s.fromWorker(1, transport.KindFragment, &FragmentBody{JobID: uint64(batch.job.ID), TaskIndex: 1, ExecNanos: 4_000_000})
		s.frags(batch, 0, 1)
		s.frags(frame, 0, 1)
		settled(t, s)
	})

	// The takeover script: the standby recovers brick 0 as journaled and
	// brick 1 as dispatched to node 1.
	t.Run("takeover", func(t *testing.T) {
		settled(t, recoverAtCut(t, frac))
	})
}

// A worker's resync hello is input: one naming a brick twice and more bricks
// than the head's quota holds neither panics the head nor corrupts its
// predicted cache. The cache keeps the first mention of each brick and stops
// at the quota, the tables stay coherent, and replaying the journal over the
// genesis snapshot rebuilds exactly the live tables.
func TestHeadLoopResyncHelloDuplicateAndOverQuota(t *testing.T) {
	brick := func(h *Head, name string, i int) volume.ChunkID {
		return volume.ChunkID{Dataset: h.dsIDs[name], Index: i}
	}
	s := newSteppedHead(t, 2, func(h *Head) {
		h.DeadlineFactor = 0
		// Room for plume's two bricks and nothing more.
		h.memQuota = h.chunkSize(brick(h, "plume", 0)) + h.chunkSize(brick(h, "plume", 1))
	})
	reply := make(chan *hastate.Snapshot, 1)
	s.step(event{kind: evSnapshot, snap: reply})
	genesis := <-reply

	s.at(5 * time.Millisecond)
	s.resync(HelloBody{Name: "w0", NodeID: 0, Cached: []ChunkRef{
		{Dataset: "plume", Index: 0}, {Dataset: "plume", Index: 0}, {Dataset: "plume", Index: 1},
		{Dataset: "supernova", Index: 0}, {Dataset: "supernova", Index: 1},
	}})
	c := s.h.state.Caches[0]
	if want := []volume.ChunkID{brick(s.h, "plume", 0), brick(s.h, "plume", 1)}; !slices.Equal(c.Resident(), want) || c.Used() > c.Quota() {
		t.Errorf("predicted cache after the hello: %v, %v of %v; want %v within the quota", c.Resident(), c.Used(), c.Quota(), want)
	}
	if err := s.h.state.Validate(); err != nil {
		t.Error(err)
	}

	if err := s.h.Journal.Sync(); err != nil {
		t.Fatal(err)
	}
	recs, err := journal.ReadAll(bytes.NewReader(s.wal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	st, err := hastate.Replay(genesis, recs, core.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := st.Tables.Dump(), s.h.state.Dump(); !reflect.DeepEqual(got, want) {
		t.Errorf("replayed tables:\n%+v\nlive tables:\n%+v", got, want)
	}
}

// wantResult reads the next reply on the client connection, which must be a
// result, and waits for finalize to hand the frame's latency to the QoS
// controller: finalize replies first and runs off the stepping goroutine.
func (s *steppedHead) wantResult(completed int64) {
	s.t.Helper()
	recvBody[ResultBody](s, s.client, transport.KindResult)
	for {
		var n int64
		for _, t := range s.h.qosc.Outcome().Tenants {
			n += t.Completed
		}
		if n >= completed {
			return
		}
		runtime.Gosched()
	}
}

// frags steps an empty fragment from the node each listed task of lj went to.
func (s *steppedHead) frags(lj *liveJob, tasks ...int) {
	s.t.Helper()
	for _, i := range tasks {
		s.fromWorker(lj.tasks[i].node, transport.KindFragment, &FragmentBody{
			JobID: uint64(lj.job.ID), TaskIndex: i, ExecNanos: 4_000_000, Hit: i == 0,
		})
	}
}

// The stats pages, byte for byte: a stepped head with QoS and two-slot
// fractional capacity runs interactive and batch frames, a deadline requeue,
// a node down and its rejoin, and a health-tick sample, and /metrics and the
// JSON page then read exactly these counters, gauges and quantiles.
func TestHeadLoopStatsPages(t *testing.T) {
	s := newSteppedHead(t, 2, func(h *Head) {
		h.QoS = &qos.Config{InteractiveRate: 1000, BatchRate: 1000}
		h.FracShare = &fracshare.Config{Slots: 2}
		h.DeadlineFactor = 4
		h.MinDeadline = time.Second
		h.RetryBackoff = 100 * time.Millisecond
		h.SuspectAfter = time.Minute
		h.DownAfter = 2 * time.Minute
	})
	frame := RenderBody{Dataset: "plume", Dist: 2.4, Width: 16, Height: 16}

	// An interactive frame, one brick on each node, back in 10 ms.
	a := s.submit(1, frame)
	s.step(event{kind: evTick})
	s.wantTasks(a.tasks[0].node, 1)
	s.wantTasks(a.tasks[1].node, 1)
	s.at(10 * time.Millisecond)
	s.frags(a, 0, 1)
	s.wantResult(1)

	// A batch frame whose second brick misses its deadline, is held for the
	// backoff and re-dispatched.
	s.at(20 * time.Millisecond)
	batch := frame
	batch.Batch, batch.Angle = true, 1
	b := s.submit(2, batch)
	s.step(event{kind: evTick})
	s.wantTasks(b.tasks[0].node, 1)
	s.wantTasks(b.tasks[1].node, 1)
	s.at(30 * time.Millisecond)
	s.frags(b, 0)
	s.at(1020 * time.Millisecond)
	s.step(event{kind: evCheck})
	s.at(1200 * time.Millisecond)
	s.step(event{kind: evCheck})
	s.step(event{kind: evTick})
	s.wantTasks(b.tasks[1].node, 1)
	s.at(1250 * time.Millisecond)
	s.frags(b, 1)
	s.wantResult(2)

	// Node 0 drops its connection and rejoins 200 ms later.
	s.at(1300 * time.Millisecond)
	s.step(event{kind: evWorker, work: workerEvent{node: 0, gen: s.h.slots[0].gen, err: io.EOF}})
	s.at(1500 * time.Millisecond)
	headSide, workerSide := transport.Pipe()
	s.step(event{kind: evRejoin, rejoin: rejoinEvent{conn: headSide, hello: HelloBody{Name: "w0", NodeID: 0, Rejoin: true}}})
	recvBody[HelloBody](s, workerSide, transport.KindHello)
	s.peers[0] = workerSide

	// A second interactive frame, both bricks in flight at one health tick
	// that samples the busy share and none at the next.
	s.at(1600 * time.Millisecond)
	frame.Angle = 0.5
	c := s.submit(3, frame)
	s.step(event{kind: evTick})
	s.wantTasks(c.tasks[0].node, 1)
	s.wantTasks(c.tasks[1].node, 1)
	s.at(1650 * time.Millisecond)
	s.step(event{kind: evCheck})
	s.at(1660 * time.Millisecond)
	s.frags(c, 0, 1)
	s.wantResult(3)
	s.at(1700 * time.Millisecond)
	s.step(event{kind: evCheck})

	for _, page := range []struct{ path, want string }{
		{"/metrics", statsPagesMetrics},
		{"/", statsPagesJSON},
	} {
		rec := httptest.NewRecorder()
		s.h.StatsHandler().ServeHTTP(rec, httptest.NewRequest("GET", page.path, nil))
		if got := rec.Body.String(); got != page.want {
			t.Errorf("GET %s:\n%s\nwant:\n%s", page.path, got, page.want)
		}
	}
}

const statsPagesMetrics = `vizsched_jobs_issued_total 3
vizsched_jobs_completed_total 3
vizsched_jobs_failed_total 0
vizsched_batch_issued_total 1
vizsched_batch_completed_total 1
vizsched_chunk_hits_total 3
vizsched_chunk_misses_total 3
vizsched_workers 2
vizsched_workers_down 1
vizsched_tasks_redispatched_total 1
vizsched_jobs_shed_total 0
vizsched_workers_rejoined_total 1
vizsched_workers_resynced_total 0
vizsched_jobs_reattached_total 0
vizsched_retained_served_total 0
vizsched_chunks_rehomed_total 0
vizsched_chunks_reseeded_total 1
vizsched_cache_evictions_total 0
vizsched_fragment_pixels_total 0
vizsched_frame_pixels_total 1536
vizsched_queue_depth 0
vizsched_batch_backlog 0
vizsched_sched_cycles_total{trigger="tick"} 2
vizsched_sched_cycles_total{trigger="arrival"} 2
vizsched_frame_latency_seconds{quantile="0.5"} 0.06
vizsched_frame_latency_seconds{quantile="0.95"} 1.23
vizsched_frame_latency_seconds{quantile="0.99"} 1.23
vizsched_mttr_seconds 0.2
vizsched_uptime_seconds 1.7
vizsched_jobs_throttled_total 0
vizsched_jobs_rejected_total 0
vizsched_qos_level 0
vizsched_qos_max_level 0
vizsched_qos_level_changes_total 0
vizsched_fairness_jain 1
vizsched_qos_slo_seconds 0.1
vizsched_qos_min_headroom_pct 44.891013
vizsched_tenant_jobs_issued_total{tenant="0"} 3
vizsched_tenant_jobs_admitted_total{tenant="0"} 3
vizsched_tenant_jobs_throttled_total{tenant="0"} 0
vizsched_tenant_jobs_rejected_total{tenant="0"} 0
vizsched_tenant_jobs_shed_total{tenant="0"} 0
vizsched_tenant_jobs_completed_total{tenant="0"} 3
vizsched_tenant_jobs_failed_total{tenant="0"} 0
vizsched_tenant_latency_seconds{tenant="0",quantile="0.5"} 0.055108987
vizsched_tenant_latency_seconds{tenant="0",quantile="0.95"} 0.055108987
vizsched_tenant_latency_seconds{tenant="0",quantile="0.99"} 0.055108987
vizsched_tenant_slo_headroom_pct{tenant="0"} 44.891013
vizsched_fracshare_slots 2
vizsched_fracshare_tasks_dispatched_total 7
vizsched_fracshare_tasks_completed_total 6
vizsched_fracshare_mean_busy_pct 20.294117647058822
vizsched_fracshare_node_busy_pct{node="0"} 2.3529411764705883
vizsched_fracshare_node_in_flight{node="0"} 0
vizsched_fracshare_node_busy_pct{node="1"} 38.23529411764706
vizsched_fracshare_node_in_flight{node="1"} 0
vizsched_fracshare_busy_pct{quantile="0.5"} 25
vizsched_fracshare_busy_pct{quantile="0.95"} 50
vizsched_fracshare_busy_pct{quantile="0.99"} 50
`

const statsPagesJSON = `{
  "uptime_seconds": 1.7,
  "jobs_issued": 3,
  "jobs_completed": 3,
  "jobs_failed": 0,
  "batch_issued": 1,
  "batch_completed": 1,
  "chunk_hits": 3,
  "chunk_misses": 3,
  "hit_rate_pct": 50,
  "mean_task_ms": 4,
  "workers": 2,
  "workers_down": 1,
  "tasks_redispatched": 1,
  "jobs_shed": 0,
  "workers_rejoined": 1,
  "workers_resynced": 0,
  "jobs_reattached": 0,
  "retained_served": 0,
  "mttr_seconds": 0.2,
  "chunks_rehomed": 0,
  "chunks_reseeded": 1,
  "queue_depth": 0,
  "batch_backlog": 0,
  "sched_cycles": 4,
  "early_cycles": 2,
  "cache_evictions": 0,
  "fragment_pixels": 0,
  "frame_pixels": 1536,
  "frame_p50_ms": 60,
  "frame_p95_ms": 1230,
  "frame_p99_ms": 1230,
  "qos": {
    "level": 0,
    "level_name": "normal",
    "max_level": 0,
    "level_changes": 0,
    "jobs_throttled": 0,
    "jobs_rejected": 0,
    "jain_fairness": 1,
    "slo_ms": 100,
    "min_headroom_pct": 44.891013,
    "tenants": [
      {
        "tenant": 0,
        "issued": 3,
        "admitted": 3,
        "throttled": 0,
        "rejected": 0,
        "shed": 0,
        "completed": 3,
        "failed": 0,
        "p50_ms": 55.108987,
        "p95_ms": 55.108987,
        "p99_ms": 55.108987,
        "headroom_pct": 44.891013
      }
    ]
  },
  "fracshare": {
    "slots": 2,
    "tasks_dispatched": 7,
    "tasks_completed": 6,
    "mean_busy_pct": 20.294117647058822,
    "node_busy_pct": [
      2.3529411764705883,
      38.23529411764706
    ],
    "node_in_flight": [
      0,
      0
    ],
    "busy_p50_pct": 25,
    "busy_p95_pct": 50,
    "busy_p99_pct": 50
  }
}
`

// The live head presents batch work through the same window as the
// simulator, QoS on or off: with more than core.DefaultBatchWindow batch
// jobs queued behind busy nodes, a pass sees the window's worth of the
// oldest, and the rest are presented in order as the first ones leave the
// backlog. The nodes stay predicted busy for an hour after each pass, so
// every tick two hours on dispatches a task to each.
func TestHeadLoopBatchWindow(t *testing.T) {
	sched := watched(2*units.Millisecond, true)
	s := newSteppedHead(t, 2, func(h *Head) {
		h.sched = sched
		h.DeadlineFactor = 0
	})
	frame := RenderBody{Dataset: "plume", Dist: 2.4, Width: 16, Height: 16}
	s.submit(1, frame) // its arrival pass makes both nodes busy
	frame.Batch = true
	var jobs []*liveJob
	for i := 0; i < core.DefaultBatchWindow+8; i++ {
		jobs = append(jobs, s.submit(uint64(i+2), frame))
	}
	for tick := 0; slices.ContainsFunc(jobs, func(lj *liveJob) bool { return lj.job.Remaining > 0 }); tick++ {
		var oldest []core.JobID
		for _, lj := range jobs {
			if lj.job.Remaining > 0 && len(oldest) < core.DefaultBatchWindow {
				oldest = append(oldest, lj.job.ID)
			}
		}
		s.at(time.Duration(tick) * 2 * time.Hour)
		s.step(event{kind: evTick})
		passes := sched.queues()
		if got := passes[len(passes)-1]; !slices.Equal(got, oldest) {
			t.Fatalf("tick %d showed Schedule %d jobs %v…, want the %d oldest queued %v…",
				tick, len(got), got[:min(len(got), 3)], len(oldest), oldest[:min(len(oldest), 3)])
		}
		if tick == 2*len(jobs) {
			t.Fatalf("%d ticks and batch work still queued", tick)
		}
	}
	if passes := sched.queues(); len(passes[1]) != core.DefaultBatchWindow || passes[1][0] != jobs[0].job.ID {
		t.Errorf("the first tick showed %d jobs from %d, want the window's %d from %d",
			len(passes[1]), passes[1][0], core.DefaultBatchWindow, jobs[0].job.ID)
	}
}

// A scheduling pass reads the head's clock once: the journaled dispatch
// instant, each task's deadline and the busy-share notes all come from that
// one reading, even on a clock that moves between reads.
func TestHeadLoopPassReadsClockOnce(t *testing.T) {
	var reads atomic.Int64
	s := newSteppedHead(t, 2, func(h *Head) {
		h.FracShare = &fracshare.Config{Slots: 2}
		h.clock = func() time.Time { return time.Unix(1_000_000_000, reads.Add(1)*int64(time.Millisecond)) }
	})
	if s.h.DeadlineFactor <= 0 {
		t.Fatal("deadlines are off by default; the pass would not set any")
	}
	b := s.submit(1, RenderBody{Dataset: "plume", Dist: 2.4, Width: 16, Height: 16, Batch: true})
	reads.Store(0)
	s.step(event{kind: evTick})
	if n := reads.Load(); n != 1 {
		t.Errorf("a pass that dispatched %d tasks read the clock %d times, want 1", len(b.tasks), n)
	}
	s.wantTasks(b.tasks[0].node, 1)
	s.wantTasks(b.tasks[1].node, 1)
	if b.tasks[0].due != b.tasks[1].due {
		t.Errorf("deadlines %v and %v for two like tasks of one pass differ", b.tasks[0].due, b.tasks[1].due)
	}
}
