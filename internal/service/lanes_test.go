package service

import (
	"sync"
	"testing"
	"time"

	"vizsched/internal/core"
	"vizsched/internal/transport"
	"vizsched/internal/units"
)

func TestFifoOrderAndClose(t *testing.T) {
	q := newFifo[int]()
	// Never drained: the queue slides down over what was popped instead of
	// growing behind its head.
	next := 0
	for i := 0; i < 1000; i++ {
		q.push(2 * i)
		q.push(2*i + 1)
		if v, ok := q.pop(); !ok || v != next {
			t.Fatalf("pop = %d, %v; want %d", v, ok, next)
		}
		next++
	}
	if c := q.buf.Cap(); c > 4096 {
		t.Errorf("1000 queued items sit in an array of %d", c)
	}
	for ; next < 1990; next++ {
		if v, ok := q.pop(); !ok || v != next {
			t.Fatalf("pop = %d, %v; want %d", v, ok, next)
		}
	}

	// close wakes every waiting pop, but not before what is queued is handed
	// out; a closed queue takes nothing more.
	idle := newFifo[int]()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, ok := idle.pop(); ok {
				t.Error("pop on an empty closed queue returned an item")
			}
		}()
	}
	idle.close()
	wg.Wait()
	q.close()
	if q.push(7) {
		t.Error("push on a closed queue succeeded")
	}
	for ; ; next++ {
		v, ok := q.pop()
		if !ok {
			break
		}
		if v != next {
			t.Fatalf("after close pop = %d, want %d", v, next)
		}
	}
	if next != 2000 {
		t.Errorf("close lost queued items: got up to %d of 2000", next)
	}
}

// The usual depth of a send queue or a lane is zero or one; a push and a pop
// at that depth must make no garbage. The `q = q[1:]` / append queue the
// head's sender had before allocated once a message.
func TestFifoSteadyStateAllocs(t *testing.T) {
	q := newFifo[transport.Message]()
	m := transport.Message{Kind: transport.KindTask, Body: make([]byte, 8)}
	q.push(m)
	q.pop()
	if n := testing.AllocsPerRun(1000, func() {
		q.push(m)
		q.pop()
	}); n != 0 {
		t.Errorf("a push and a pop at depth one allocate %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		q.push(m)
		q.push(m)
		q.pop()
		q.pop()
	}); n != 0 {
		t.Errorf("two pushes and two pops allocate %v times, want 0", n)
	}
}

// laneHead is the head's end of a pipe to a real worker: it takes the
// worker's hello, acks it, and then the test sends tasks and reads what
// comes back by hand.
type laneHead struct {
	t    *testing.T
	w    *Worker
	conn transport.Conn
	done chan error // Serve's (or Resync's) return
}

// handshake takes the hello of a worker entering through enter (Serve, or
// Resync) and answers with ack.
func handshake(t *testing.T, w *Worker, ack HelloBody, enter func(transport.Conn) error) *laneHead {
	t.Helper()
	w.Logf = func(string, ...any) {}
	w.Heartbeat = 0
	headSide, workerSide := transport.Pipe()
	h := &laneHead{t: t, w: w, conn: headSide, done: make(chan error, 1)}
	go func() { h.done <- enter(workerSide) }()
	if msg, err := headSide.Recv(); err != nil || msg.Kind != transport.KindHello {
		t.Fatalf("worker hello: %v, %v", msg.Kind, err)
	}
	if err := send(headSide, transport.KindHello, 0, ack); err != nil {
		t.Fatal(err)
	}
	return h
}

func startLaneWorker(t *testing.T, cat *Catalog, ack HelloBody) *laneHead {
	w := NewWorker("w", cat, 64*units.MB)
	return handshake(t, w, ack, w.Serve)
}

// task sends one single-brick task; the job ID doubles as the message ID, as
// on the head.
func (h *laneHead) task(job uint64, size int, batch bool) {
	h.t.Helper()
	err := send(h.conn, transport.KindTask, job, &TaskBody{
		JobID: job, Dataset: "supernova",
		Render: RenderBody{Dataset: "supernova", Angle: 0.6, Elevation: 0.3, Dist: 2.4,
			Width: size, Height: size, Batch: batch},
	})
	if err != nil {
		h.t.Fatal(err)
	}
}

// fragment reads up to the worker's next fragment.
func (h *laneHead) fragment() FragmentBody {
	h.t.Helper()
	for {
		msg, err := h.conn.Recv()
		if err != nil {
			h.t.Fatalf("reading the worker's output: %v", err)
		}
		switch msg.Kind {
		case transport.KindFragment:
			var f FragmentBody
			if err := transport.Decode(msg.Body, &f); err != nil {
				h.t.Fatal(err)
			}
			return f
		case transport.KindError:
			h.t.Fatalf("the worker reported an error for job %d", msg.ID)
		}
	}
}

// stop shuts the worker down and waits for Serve to return.
func (h *laneHead) stop() {
	h.t.Helper()
	_ = h.conn.Send(transport.Message{Kind: transport.KindShutdown})
	select {
	case err := <-h.done:
		if err != nil {
			h.t.Errorf("Serve = %v after a shutdown", err)
		}
	case <-time.After(30 * time.Second):
		h.t.Fatal("Serve did not return after a shutdown")
	}
	h.conn.Close()
}

// warm renders one small interactive frame so the brick is resident and has
// its macrocells before anything is timed or ordered.
func (h *laneHead) warm() {
	h.t.Helper()
	for job := uint64(1); job <= 2; job++ {
		h.task(job, 16, false)
		h.fragment()
	}
}

// The job IDs the lane tests give their batch and interactive tasks.
const (
	firstBatchJob       = 100
	firstInteractiveJob = 200
)

// Batch tasks queued ahead of an interactive one do not hold it up: it
// passes every batch task that has not started, and the one that has stands
// aside. Within a class the order is the order of arrival.
func TestInteractiveOvertakesQueuedBatch(t *testing.T) {
	h := startLaneWorker(t, testCatalog(t, 1), HelloBody{})
	defer h.stop()
	h.warm()
	const nBatch, nInteractive = 6, 3
	for i := 0; i < nBatch; i++ {
		h.task(firstBatchJob+uint64(i), 192, true)
	}
	for i := 0; i < nInteractive; i++ {
		h.task(firstInteractiveJob+uint64(i), 32, false)
	}
	var batch, interactive, batchBeforeInteractive int
	for batch+interactive < nBatch+nInteractive {
		f := h.fragment()
		switch {
		case f.JobID == firstBatchJob+uint64(batch):
			batch++
			if interactive < nInteractive {
				batchBeforeInteractive++
			}
		case f.JobID == firstInteractiveJob+uint64(interactive):
			interactive++
		default:
			t.Fatalf("job %d reported after %d batch and %d interactive tasks: not in its class's order",
				f.JobID, batch, interactive)
		}
	}
	if batchBeforeInteractive > 1 {
		t.Errorf("%d of %d batch tasks finished before the interactive tasks queued behind them, want at most the one that was running",
			batchBeforeInteractive, nBatch)
	}
}

// A batch render that stood aside for an interactive task reports its own
// time, not the time it stood aside: the interactive fragment has reported
// that already, and the head would count it twice into Available.
func TestBatchExecNetOfForeground(t *testing.T) {
	h := startLaneWorker(t, testCatalog(t, 1), HelloBody{})
	defer h.stop()
	h.warm()
	const slack = 5 * time.Millisecond
	sent := time.Now()
	h.task(firstInteractiveJob, 512, false) // the gate: a long interactive render
	h.task(firstBatchJob, 32, true)
	fg := h.fragment()
	bg := h.fragment()
	wall := time.Since(sent)
	if fg.JobID != firstInteractiveJob || bg.JobID != firstBatchJob {
		t.Fatalf("fragments of jobs %d, %d; want the interactive one first", fg.JobID, bg.JobID)
	}
	displaced := time.Duration(fg.ExecNanos)
	if displaced < 4*slack {
		t.Fatalf("the interactive render took %v: too short to displace anything", displaced)
	}
	if own := time.Duration(bg.ExecNanos); own >= wall-displaced+slack {
		t.Errorf("the batch task reports %v of a %v round trip that held a %v interactive render: want under %v",
			own, wall, displaced, wall-displaced+slack)
	}
}

// A running batch render waits for the interactive tasks it saw, not for
// silence: with an interactive task always in flight — three pipelined, the
// next sent as each returns — it still advances a scanline at a time and
// finishes. Waiting for none in flight, it would outlast any stream.
func TestLaneBatchAdvancesUnderInteractiveStream(t *testing.T) {
	h := startLaneWorker(t, testCatalog(t, 1), HelloBody{})
	defer h.stop()
	h.warm()
	const depth, limit = 3, 1000
	sent, back, finishedAfter := 0, 0, -1
	more := func() {
		h.task(firstInteractiveJob+uint64(sent), 32, false)
		sent++
	}
	for sent < depth {
		more()
	}
	h.task(firstBatchJob, 32, true)
	for back < sent {
		if f := h.fragment(); f.JobID == firstBatchJob {
			finishedAfter = back
			continue
		}
		back++
		if finishedAfter < 0 && sent < limit {
			more()
		}
	}
	if finishedAfter < 0 {
		h.fragment() // the stream has run out; now it finishes
		t.Fatalf("the batch task outlasted a stream of %d interactive tasks", limit)
	}
	t.Logf("the batch task finished beside interactive task %d", finishedAfter)
}

// Interactive frames that never stop coming slow a dispatched batch task but
// do not hold it: it ends inside its dispatch deadline and is never
// dispatched twice.
func TestBatchSurvivesSustainedInteractive(t *testing.T) {
	cl, err := StartCluster(core.NewLocalityScheduler(2*units.Millisecond), testCatalog(t, 2), 2, 64*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	before := cl.Head.Stats()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for u := 0; u < 2; u++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := cl.Connect()
			defer c.Close()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Render(RenderBody{Dataset: "supernova", Angle: 0.1 * float64(i), Dist: 2.4,
					Width: 64, Height: 64, Action: u + 1}); err != nil {
					t.Errorf("interactive client %d frame %d: %v", u, i, err)
					return
				}
			}
		}()
	}
	c := cl.Connect()
	defer c.Close()
	batch := 0
	for start := time.Now(); time.Since(start) < time.Second; batch++ {
		if _, err := c.Render(RenderBody{Dataset: "plume", Angle: 0.1 * float64(batch), Dist: 2.4,
			Width: 64, Height: 64, Batch: true, Action: 9}); err != nil {
			t.Fatalf("batch frame %d under interactive load: %v", batch, err)
		}
	}
	close(stop)
	wg.Wait()
	after := cl.Head.Stats()
	if batch == 0 {
		t.Fatal("no batch frame was submitted")
	}
	if d := after.TasksRedispatched - before.TasksRedispatched; d != 0 {
		t.Errorf("%d tasks were dispatched again: a batch render was held past its deadline", d)
	}
	if d := after.JobsFailed - before.JobsFailed; d != 0 {
		t.Errorf("%d jobs failed", d)
	}
}

// A session that ends drops what is queued, lets what is running finish, and
// leaves the foreground account at zero: a batch task of the next session is
// not left waiting for interactive tasks that will never run.
func TestWorkerDropsQueuedTasksOnClose(t *testing.T) {
	h := startLaneWorker(t, testCatalog(t, 1), HelloBody{})
	h.warm()
	const queued = 20
	for i := 0; i < queued; i++ {
		h.task(firstInteractiveJob+uint64(i), 256, false)
		h.task(firstBatchJob+uint64(i), 256, true)
	}
	h.conn.Close()
	select {
	case <-h.done:
	case <-time.After(30 * time.Second):
		t.Fatal("Serve did not return after the connection closed")
	}
	w := h.w
	if n := w.TasksExecuted() - 2; n >= 2*queued {
		t.Errorf("all %d tasks ran on a connection that was closed behind them", n)
	}
	w.fg.mu.Lock()
	filed, done := w.fg.filed, w.fg.done
	w.fg.mu.Unlock()
	if filed != done {
		t.Fatalf("the foreground account holds %d tasks after Serve returned", filed-done)
	}

	h = handshake(t, w, HelloBody{NodeID: 0}, func(c transport.Conn) error { return w.Resync(c, 0) })
	defer h.stop()
	h.task(firstBatchJob+queued, 32, true)
	got := make(chan FragmentBody, 1)
	go func() { got <- h.fragment() }()
	select {
	case f := <-got:
		if f.JobID != firstBatchJob+queued {
			t.Errorf("the resynced session reported job %d", f.JobID)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a batch task of the resynced session never finished")
	}
}
