package service

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"vizsched/internal/cache"
	"vizsched/internal/core"
	"vizsched/internal/hastate"
	"vizsched/internal/journal"
	"vizsched/internal/transport"
	"vizsched/internal/units"
)

// eventKind names what happened to the head.
type eventKind uint8

const (
	evArrival  eventKind = iota // a client's job: event.lj
	evWorker                    // a worker's message, or its connection's error: event.work
	evRejoin                    // a reconnecting worker's hello: event.rejoin
	evTick                      // the scheduler's ω tick
	evCheck                     // the health, deadline and autoscale check
	evSnapshot                  // a snapshot request: event.snap, its reply channel
	evStop                      // graceful shutdown
	evCrash                     // abrupt death
)

// event is one thing that happens to the head. It is a tagged struct passed
// by value, not an interface: a frame is a dozen and more worker events, and
// boxing each would be an allocation apiece.
type event struct {
	kind   eventKind
	lj     *liveJob
	work   workerEvent
	rejoin rejoinEvent
	snap   chan *hastate.Snapshot
}

// taskAt names task i of a live job.
type taskAt struct {
	lj *liveJob
	i  int
}

// headLoop is the dispatching thread's state (§III-A), owned by whichever
// goroutine calls step: run's, or a test's, which then also owns the head's
// clock. A job is in the backlog exactly while it has tasks left to dispatch
// (Remaining > 0) — with QoS on, the fair queue in front of it included;
// inflight maps a backlog job back to its liveJob.
type headLoop struct {
	h        *Head
	backlog  core.Backlog
	inflight map[core.JobID]*liveJob
	scaler   *liveScaler // nil unless Head.Autoscale is set
}

// newHeadLoop builds the loop state for a head whose tables and extensions
// boot has installed.
func newHeadLoop(h *Head) *headLoop {
	l := &headLoop{h: h, inflight: make(map[core.JobID]*liveJob)}
	if h.qosc != nil {
		l.backlog.SetGate(h.qosc)
	}
	if h.Autoscale != nil {
		l.scaler = newLiveScaler(l)
	}
	return l
}

// run is the dispatcher goroutine. It owns what only a goroutine can — the
// two tickers and the order in which ready channels are taken — and hands
// every event to step. A Periodic scheduler's passes start at the ω tick,
// and at the arrivals arrivalCycle admits.
func (l *headLoop) run() {
	h := l.h
	defer close(h.doneCh)
	var tick <-chan time.Time
	if h.sched.Trigger() == core.Periodic {
		t := time.NewTicker(h.sched.Cycle().Std())
		defer t.Stop()
		tick = t.C
	}
	checkEvery := h.CheckInterval
	if checkEvery <= 0 {
		checkEvery = 50 * time.Millisecond
	}
	check := time.NewTicker(checkEvery)
	defer check.Stop()

	for {
		// Termination has strict priority. Go's select picks uniformly at
		// random among ready cases, so once Crash or Stop has fired the
		// loop could otherwise keep draining worker completions — each
		// journaling a record "after" the death, which a recovery test
		// would then see as work the dead head somehow did.
		select {
		case <-h.crashCh:
			l.step(event{kind: evCrash})
			return
		case <-h.stopCh:
			l.step(event{kind: evStop})
			return
		default:
		}

		select {
		case <-h.stopCh:
			l.step(event{kind: evStop})
			return
		case <-h.crashCh:
			l.step(event{kind: evCrash})
			return
		case req := <-h.snapCh:
			l.step(event{kind: evSnapshot, snap: req})
		case lj := <-h.jobCh:
			l.step(event{kind: evArrival, lj: lj})
		case ev := <-h.rejoinCh:
			l.step(event{kind: evRejoin, rejoin: ev})
		case <-tick:
			l.step(event{kind: evTick})
		case <-check.C:
			l.step(event{kind: evCheck})
		case ev := <-h.workCh:
			l.step(event{kind: evWorker, work: ev})
		}
	}
}

// step applies one event to the head: the only entry to the queue, the
// tables and the in-flight jobs.
func (l *headLoop) step(ev event) {
	switch ev.kind {
	case evArrival:
		l.admit(ev.lj)
	case evWorker:
		l.fromWorker(&ev.work)
	case evRejoin:
		l.rejoin(&ev.rejoin)
	case evTick:
		l.schedule()
	case evCheck:
		l.check()
	case evSnapshot:
		l.snapshot(ev.snap)
	case evStop:
		l.closeWorkers(true)
	case evCrash:
		l.closeWorkers(false)
	}
}

// sendPrefetches ships warm directives to their workers. A failed send is
// left to the connection reader: the node-down path abandons the
// controller's in-flight record along with everything else.
func (l *headLoop) sendPrefetches(ds []core.PrefetchDirective) {
	h := l.h
	for _, d := range ds {
		h.stats.prefetchIssued.Add(1)
		h.stats.prefetchBytes.Add(int64(d.Size))
		raw, err := transport.Encode(PrefetchBody{Dataset: h.dsNames[d.Chunk.Dataset], Chunk: d.Chunk.Index})
		if err != nil {
			h.Logf("head: encoding prefetch: %v", err)
			continue
		}
		if err := h.slots[d.Node].send.Send(transport.Message{Kind: transport.KindPrefetch, Body: raw}); err != nil {
			h.Logf("head: prefetch send to node %d failed: %v", d.Node, err)
		}
	}
}

// schedule runs the backlog's scheduling pass and carries out what it
// decided: each assignment's journal record, deadline, then the task on its
// way; then the warms.
func (l *headLoop) schedule() {
	h := l.h
	var planner core.PrefetchPlanner
	if h.prefc != nil {
		planner = h.prefc
	}
	// One clock read for the pass: every CommitAssign inside Schedule and
	// every journaled dispatch record must carry the same instant, or replay
	// could not reproduce the tables. The deadlines and the busy-share notes
	// are taken from it too.
	wall := h.wall()
	now := units.Time(wall.Sub(h.start))
	p := l.backlog.Pass(now, h.sched, h.state, planner)
	if p.Shown > 0 {
		h.stats.schedCycles.Add(1)
	}
	for _, a := range p.Assignments {
		lj := l.inflight[a.Task.Job.ID]
		t := &lj.tasks[a.Task.Index]
		t.node, t.state = a.Node, taskSent
		h.count(t, now)
		body := TaskBody{
			JobID:     uint64(lj.job.ID),
			TaskIndex: a.Task.Index,
			Dataset:   h.dsNames[lj.job.Dataset],
			Chunk:     a.Task.Index,
			Render:    lj.req,
		}
		h.journalRec(journal.KindDispatch, lj.job.ID, a.Task.Index, a.Node, now,
			hastate.DispatchBody{Predicted: a.Task.PredictedExec})
		if h.DeadlineFactor > 0 {
			t.due = wall.Add(h.taskDeadline(a.Task))
		}
		raw, err := transport.Encode(&body)
		if err != nil {
			h.Logf("head: encoding task: %v", err)
			continue
		}
		if err := h.slots[a.Node].send.Send(transport.Message{
			Kind: transport.KindTask, ID: uint64(lj.job.ID), Body: raw,
		}); err != nil {
			h.Logf("head: send to node %d failed: %v", a.Node, err)
		}
	}
	l.sendPrefetches(p.Warms)
}

// arrivalCycle runs a scheduling pass for the job just admitted at now when
// it need not wait for the ω tick (DESIGN.md §5.19): always under an
// OnArrival scheduler; under a Periodic one only when the job is
// interactive, nothing is waiting ahead of it (the backlog and, with QoS
// on, the fair queue) and some alive node is predicted idle. Batch work is
// deferred by design, a waiting job means a loaded head whose tick batches,
// supersedes and sheds arrivals together, and with every node busy an early
// pass would only lengthen a node's queue. The ticker is left alone: a job
// that does not qualify is scheduled exactly when it always was.
func (l *headLoop) arrivalCycle(lj *liveJob, now units.Time) {
	h := l.h
	if h.sched.Trigger() == core.OnArrival {
		l.schedule()
		return
	}
	if lj.job.Class == core.Interactive && l.backlog.Len() == 1 && h.state.AnyIdle(now) {
		l.schedule()
		h.stats.earlyCycles.Add(1)
	}
}

// failJob fails a job back to its client without touching the QoS
// controller's books — for jobs the controller already accounted for (shed
// victims) or never admitted.
func (l *headLoop) failJob(lj *liveJob, msg string) {
	h := l.h
	h.stats.jobsFailed.Add(1)
	if _, admitted := l.inflight[lj.job.ID]; admitted {
		// Only journaled-admitted jobs get a fail record; replay drops
		// them so a standby never resurrects an abandoned job.
		h.journalRec(journal.KindFail, lj.job.ID, -1, -1, h.now(), nil)
	}
	delete(l.inflight, lj.job.ID)
	h.dropKey(lj)
	// Its records leave the head with it, and the busy-share account.
	now := h.now()
	for i := range lj.tasks {
		h.uncount(&lj.tasks[i], false, now)
	}
	// A failed job must never reach the scheduler again.
	l.backlog.Remove(lj.job)
	if lj.conn == nil {
		return // a recovered job with no re-attached client yet
	}
	if err := send(lj.conn, transport.KindError, lj.msgID, ErrorBody{Msg: msg}); err != nil {
		h.Logf("head: error reply failed: %v", err)
	}
}

// fail additionally tells the QoS controller an admitted job was lost, so
// per-tenant accounting and the in-flight session bound stay exact.
func (l *headLoop) fail(lj *liveJob, msg string) {
	if l.h.qosc != nil {
		l.h.qosc.Forget(lj.job)
	}
	l.failJob(lj, msg)
}

// requeue returns dispatched task i to the schedulable queue; a journaled
// record requeued is re-rendered, since its retained replay never came. The
// caller counts it: as a crash redispatch when the task is presumed lost, as
// a migration when a drain hands it back (§5.12) — the two counters the
// autoscaler must keep disjoint.
func (l *headLoop) requeue(lj *liveJob, i int) {
	l.backlog.Requeue(&lj.job.Tasks[i])
	l.h.uncount(&lj.tasks[i], false, l.h.now())
	lj.tasks[i].state = taskQueued
}

// count puts t on its node's busy-share account at now.
func (h *Head) count(t *liveTask, now units.Time) {
	t.counts = true
	if h.frac != nil {
		h.frac.note(int(t.node), +1, false, now)
	}
}

// uncount takes t off its node's busy-share account at now, if it is on
// it: completed when its fragment came back.
func (h *Head) uncount(t *liveTask, completed bool, now units.Time) {
	if t.counts && h.frac != nil {
		h.frac.note(int(t.node), -1, completed, now)
	}
	t.counts = false
}

// byAdmission returns the in-flight jobs oldest first. Job IDs are issued in
// submission order, so every walk over the jobs — the node-down requeue, the
// deadline scan, a snapshot — takes the same order on every run instead of
// the map's.
func (l *headLoop) byAdmission() []*liveJob {
	ljs := make([]*liveJob, 0, len(l.inflight))
	for _, lj := range l.inflight {
		ljs = append(ljs, lj)
	}
	slices.SortFunc(ljs, func(a, b *liveJob) int { return cmp.Compare(a.job.ID, b.job.ID) })
	return ljs
}

// outstanding lists the tasks dispatched to node whose fragment has not come
// back — what the node owes the head — oldest job first.
func (l *headLoop) outstanding(node core.NodeID) []taskAt {
	var out []taskAt
	for _, lj := range l.byAdmission() {
		for i := range lj.tasks {
			if t := &lj.tasks[i]; t.state != taskQueued && t.state != taskDone && t.node == node {
				out = append(out, taskAt{lj, i})
			}
		}
	}
	return out
}

// nodeDown declares worker node dead: close its connection, mark it failed,
// and requeue the unfinished tasks it held (§VI-D).
func (l *headLoop) nodeDown(node core.NodeID) {
	h := l.h
	if h.state.Health(node) == core.HealthDown {
		return
	}
	h.Logf("head: node %d down; re-scheduling its tasks", node)
	h.stats.workersDown.Add(1)
	h.journalRec(journal.KindRehome, 0, -1, node, h.now(), nil)
	if rehome := h.state.MarkFailed(node); rehome.Rehomed > 0 || rehome.Reseeded > 0 {
		h.stats.chunksRehomed.Add(int64(rehome.Rehomed))
		h.stats.chunksReseeded.Add(int64(rehome.Reseeded))
		h.Logf("head: node %d chunks re-homed: %d warm, %d re-seeding rarest-first", node, rehome.Rehomed, rehome.Reseeded)
	}
	w := &h.slots[node]
	w.health.Store(int32(core.HealthDown))
	w.downAt = h.wall()
	w.send.Close()
	if w.conn != nil { // a recovered head's slot may never have connected
		w.conn.Close()
	}
	owed := l.outstanding(node)
	for _, t := range owed {
		l.requeue(t.lj, t.i)
	}
	h.stats.tasksRedispatched.Add(int64(len(owed)))
}

// check is the periodic event: the fault-tolerance scan, then what samples
// on the same cadence — the queue gauges /metrics reads, the busy-share
// account and the autoscaler.
func (l *headLoop) check() {
	h := l.h
	l.checkHealth()
	depth := l.backlog.Len()
	h.stats.queueDepth.Store(int64(depth))
	h.stats.batchBacklog.Store(int64(l.backlog.Batch()))
	if h.frac != nil {
		h.frac.sample()
	}
	if l.scaler != nil {
		l.scaler.tick(depth)
	}
}

// checkHealth scans heartbeat freshness and task deadlines — the periodic
// half of the fault-tolerance layer.
func (l *headLoop) checkHealth() {
	h := l.h
	now := h.wall()
	for k := range h.slots {
		node := core.NodeID(k)
		if h.state.Health(node) == core.HealthDown {
			continue
		}
		silent := now.Sub(h.slots[k].lastBeat)
		switch {
		case h.DownAfter > 0 && silent > h.DownAfter:
			h.Logf("head: node %d silent for %v; declaring it down", k, silent.Round(time.Millisecond))
			l.nodeDown(node)
		case h.SuspectAfter > 0 && silent > h.SuspectAfter:
			if h.state.Health(node) == core.HealthUp {
				h.Logf("head: node %d silent for %v; suspect", k, silent.Round(time.Millisecond))
				h.setHealth(node, core.HealthSuspect)
			}
		}
	}
	if h.DeadlineFactor <= 0 {
		return
	}
	changed := false
	for _, lj := range l.byAdmission() {
		for i := range lj.tasks {
			t := &lj.tasks[i]
			switch t.state {
			case taskHeld:
				if now.After(t.due) {
					l.requeue(lj, i)
					h.stats.tasksRedispatched.Add(1)
					changed = true
				}
				continue
			case taskSent, taskJournaled:
				if now.Before(t.due) {
					continue
				}
			default:
				continue
			}
			// Overdue: presumed lost. Retry with exponential backoff +
			// jitter, or fail the job once the budget is spent.
			t.retries++
			if t.retries > h.MaxRetries {
				l.fail(lj, fmt.Sprintf("task %d lost %d times; giving up", i, t.retries))
				break
			}
			backoff := h.RetryBackoff << (t.retries - 1)
			backoff += time.Duration(h.rng.Int63n(int64(backoff)/2 + 1))
			h.Logf("head: task %v overdue on node %d; retry %d after %v",
				lj.job.Tasks[i].String(), t.node, t.retries, backoff.Round(time.Millisecond))
			t.state, t.due = taskHeld, now.Add(backoff)
		}
	}
	if changed {
		l.schedule()
	}
}

// admit takes an arriving job. A non-zero idempotency key is resolved first:
// a key already in flight re-attaches the reply path (the client reconnected
// after losing the head or its reply), and a key with a retained result is
// served from the store — neither renders anything twice. Then the backlog
// decides the job (core.Backlog.Admit: the QoS gate, MaxQueue, DropStale),
// and admit carries the decision out: the jobs it displaced and a refused
// arrival fail back to their clients, an admitted one is journaled.
func (l *headLoop) admit(lj *liveJob) {
	h := l.h
	if key := lj.req.Key; key != 0 {
		// One critical section: finalize moves a key from byKey to the
		// retained store atomically, so checking both under the same
		// hold guarantees a duplicate key hits exactly one of them.
		h.mu.Lock()
		if prior := h.byKey[key]; prior != nil {
			prior.conn, prior.msgID = lj.conn, lj.msgID
			h.mu.Unlock()
			h.stats.jobsReattached.Add(1)
			return
		}
		if res, ok := h.retained[key]; ok {
			h.mu.Unlock()
			h.stats.retainedServed.Add(1)
			// Off the dispatcher: a slow client must not stall dispatch.
			go func(conn transport.Conn, msgID uint64) {
				_ = send(conn, transport.KindResult, msgID, res)
			}(lj.conn, lj.msgID)
			return
		}
		h.byKey[key] = lj
		h.mu.Unlock()
	}
	// Rung 2 of the QoS ladder: shrink the requested image before any task
	// dispatches, trading interactive fidelity for latency.
	if h.qosc != nil && lj.job.Class == core.Interactive {
		if s := h.qosc.ResolutionScale(); s < 1 {
			if w := int(float64(lj.req.Width) * s); w >= 16 {
				lj.req.Width = w
			}
			if ht := int(float64(lj.req.Height) * s); ht >= 16 {
				lj.req.Height = ht
			}
		}
	}
	now := h.now()
	a := l.backlog.Admit(lj.job, now, h.MaxQueue, h.DropStale)
	// The displaced jobs fail before the arrival is journaled; a gate has
	// accounted them already.
	if a.Crowded != nil {
		h.stats.jobsShed.Add(1)
		l.failJob(l.inflight[a.Crowded.ID], "shed under overload")
	}
	if a.Stale != nil {
		h.stats.jobsShed.Add(1)
		l.failJob(l.inflight[a.Stale.ID], "superseded by a newer frame")
	}
	switch a.Verdict {
	case core.Rejected:
		h.stats.jobsRejected.Add(1)
		l.failJob(lj, "rejected by admission control")
		return
	case core.ShedStale:
		h.stats.jobsShed.Add(1)
		l.failJob(lj, "shed: session already at its in-flight frame bound")
		return
	case core.Overloaded:
		h.stats.jobsShed.Add(1)
		l.failJob(lj, "head overloaded: batch queue full")
		return
	case core.Throttled:
		h.stats.jobsThrottled.Add(1)
	}
	l.inflight[lj.job.ID] = lj
	h.journalRec(journal.KindAdmit, lj.job.ID, -1, -1, now,
		hastate.AdmitBody{Job: h.jobRecord(lj)})
	l.arrivalCycle(lj, now)
}

// rejoin restores a node's slot with a fresh connection: the §VI-D repair
// path for a down node, extended (§5.10) with the resync epoch a recovered
// head runs — the worker re-announces its cache and retained completions,
// the head adopts the announced truth into its tables, and the ack lists the
// tasks the head still considers outstanding so the worker replays retained
// results instead of re-rendering them.
func (l *headLoop) rejoin(ev *rejoinEvent) {
	h := l.h
	node := core.NodeID(ev.hello.NodeID)
	health := h.state.Health(node)
	if health != core.HealthDown && !ev.hello.Resync {
		h.Logf("head: rejected rejoin for node %d (health %v)", node, health)
		ev.conn.Close()
		return
	}
	w := &h.slots[node]
	w.gen++
	prior := w.conn
	h.mu.Lock()
	w.conn = ev.conn
	h.mu.Unlock()
	if health != core.HealthDown {
		// The slot's previous incarnation was never declared down (a
		// recovered standby's unconnected placeholder, or a worker that
		// reconnected before the silence threshold): retire it.
		w.send.Close()
		if prior != nil && prior != ev.conn {
			prior.Close()
		}
	}
	w.send = h.attach(node, w.gen, ev.conn)
	now := h.now()
	if ev.hello.Resync {
		// Adopt the worker's announced cache wholesale: the head's
		// prediction may be stale (a recovered table, or drift across the
		// disconnect), and the worker holds ground truth.
		entries := make([]cache.Entry, 0, len(ev.hello.Cached))
		for _, c := range h.chunkIDs(ev.hello.Cached) {
			if size := h.chunkSize(c); size > 0 {
				entries = append(entries, cache.Entry{ID: c, Size: size})
			}
		}
		h.state.ResyncCache(node, entries)
		h.journalRec(journal.KindResync, 0, -1, node, now, hastate.ResyncBody{Entries: entries})
		h.stats.workersResynced.Add(1)
	}
	switch health {
	case core.HealthDown:
		h.state.MarkRepaired(node, now)
		h.journalRec(journal.KindRepair, 0, -1, node, now, nil)
	case core.HealthSuspect:
		h.state.MarkUp(node)
		h.journalRec(journal.KindUp, 0, -1, node, now, nil)
	}
	w.health.Store(int32(core.HealthUp))
	w.lastBeat = h.wall()
	if !w.downAt.IsZero() {
		h.stats.mttrNanos.Add(h.wall().Sub(w.downAt).Nanoseconds())
		h.stats.mttrEvents.Add(1)
		w.downAt = time.Time{}
	}
	h.stats.workersRejoined.Add(1)
	h.Logf("head: node %d rejoined (%s, resync=%v)", node, ev.hello.Name, ev.hello.Resync)
	ack := HelloBody{NodeID: int(node), Shard: h.shard.index, Slots: h.fracSlots()}
	if ev.hello.Resync {
		for _, t := range l.outstanding(node) {
			ack.Outstanding = append(ack.Outstanding, TaskRef{JobID: uint64(t.lj.job.ID), TaskIndex: t.i})
		}
	}
	if err := send(ev.conn, transport.KindHello, 0, ack); err != nil {
		h.Logf("head: rejoin ack failed: %v", err)
	}
	// A node just became schedulable; put waiting work on it now rather
	// than at the next tick or arrival.
	l.schedule()
	// Pre-warmed bring-up: a worker that came back from Down is cold —
	// its first warm goes out now, and for the rest of the warm-up window
	// the autoscaler's tick copies the hottest predicted chunks onto it
	// through the governor.
	if l.scaler != nil && health == core.HealthDown {
		l.scaler.noteBringup(node)
	}
}

// closeWorkers ends the head's side of every worker connection. Graceful is
// Stop: a shutdown handshake, then the journal synced. Not graceful is abrupt
// death (Crash): connections drop with no handshake and the journal is NOT
// synced — workers and clients see a broken pipe, and records still in the
// batch buffer are lost, exactly as a real head crash would lose them.
func (l *headLoop) closeWorkers(graceful bool) {
	h := l.h
	for k := range h.slots {
		w := &h.slots[k]
		if graceful {
			_ = w.send.Send(transport.Message{Kind: transport.KindShutdown})
		}
		w.send.Close()
		if w.conn != nil {
			w.conn.Close()
		}
	}
	if graceful && h.Journal != nil {
		_ = h.Journal.Sync()
	}
}

// fromWorker takes one event off a worker connection: its death, or a
// message — which, whatever it says, proves the worker alive.
func (l *headLoop) fromWorker(ev *workerEvent) {
	h := l.h
	if ev.gen != h.slots[ev.node].gen {
		return // stale connection incarnation
	}
	if ev.err != nil {
		l.nodeDown(ev.node)
		return
	}
	// Any traffic proves liveness; a suspect node is rehabilitated.
	h.slots[ev.node].lastBeat = h.wall()
	if h.state.Health(ev.node) == core.HealthSuspect {
		h.setHealth(ev.node, core.HealthUp)
	}
	switch ev.msg.Kind {
	case transport.KindHeartbeat:
		// Liveness only; handled above.
	case transport.KindFragment:
		l.fragment(ev.node, ev.msg.Body)
	case transport.KindPrefetchDone:
		var pd PrefetchDoneBody
		if err := transport.Decode(ev.msg.Body, &pd); err != nil {
			h.Logf("head: bad prefetch report from node %d: %v", ev.node, err)
			return
		}
		h.prefetchDone(ev.node, pd)
	case transport.KindError:
		var eb ErrorBody
		_ = transport.Decode(ev.msg.Body, &eb)
		if lj := l.inflight[core.JobID(ev.msg.ID)]; lj != nil {
			l.fail(lj, eb.Msg)
		}
	default:
		h.Logf("head: unexpected %v from node %d", ev.msg.Kind, ev.node)
	}
}

// fragment folds one rendered fragment from node into its job, and hands the
// job to finalize when it was the last.
func (l *headLoop) fragment(node core.NodeID, body []byte) {
	h := l.h
	var frag FragmentBody
	if err := transport.Decode(body, &frag); err != nil {
		h.Logf("head: bad fragment from node %d: %v", node, err)
		return
	}
	lj := l.inflight[core.JobID(frag.JobID)]
	if lj == nil {
		return // job already failed or delivered (stale duplicate)
	}
	if frag.TaskIndex < 0 || frag.TaskIndex >= len(lj.tasks) {
		h.Logf("head: fragment task %d out of range from node %d", frag.TaskIndex, node)
		return
	}
	// Only the first report per task is folded in: a duplicated delivery
	// (network chaos, a resync replay racing the original) must not
	// double-correct the tables or double-count cache stats.
	if i := frag.TaskIndex; lj.tasks[i].state != taskDone {
		t := &lj.tasks[i]
		if t.state == taskQueued {
			// The task was presumed lost and released for re-dispatch, but
			// the original completed after all: reclaim it before a
			// duplicate is scheduled.
			l.backlog.Reclaim(&lj.job.Tasks[i])
		}
		now := h.now()
		// A journaled completion (a journaled record, or a held one that
		// never counted) is already in the replayed tables: this is the
		// worker's retained replay carrying the pixels, stored as it is.
		if t.state != taskJournaled && (t.state != taskHeld || t.counts) {
			touch, evicted := h.correct(lj, node, &frag, now)
			h.journalRec(journal.KindComplete, lj.job.ID, i, node, now,
				hastate.CompleteBody{
					Hit: frag.Hit, Touch: touch,
					Exec: units.Duration(frag.ExecNanos), Evicted: evicted,
				})
		}
		h.uncount(t, true, now)
		t.frag, t.state = &frag, taskDone
		lj.got++
	}
	if lj.got == len(lj.tasks) {
		delete(l.inflight, lj.job.ID)
		// The key binding survives until finalize retires it into the
		// retained store, so a re-submission racing the PNG encode
		// re-attaches instead of re-rendering.
		go h.finalize(lj)
	}
}
