package service

import (
	"fmt"

	"vizsched/internal/core"
	"vizsched/internal/hastate"
	"vizsched/internal/journal"
	"vizsched/internal/transport"
	"vizsched/internal/units"
)

// This file is the head's failover machinery (DESIGN.md §5.10): journaling
// hooks the dispatcher calls on every recoverable mutation, the snapshot
// builder, the crash hook used by tests and the failover example, and
// StartRecovered — the warm-standby entry point that resumes dispatching
// from a replayed hastate.State.

// journalRec appends one record to the write-ahead log. A nil Journal makes
// this a no-op, keeping the non-HA configuration byte-identical. Append
// errors are logged, not fatal: a head that cannot journal keeps serving
// (recoverability degrades, availability does not).
func (h *Head) journalRec(kind journal.Kind, job core.JobID, task int, node core.NodeID, at units.Time, body any) {
	if h.Journal == nil {
		return
	}
	var raw []byte
	if body != nil {
		var err error
		raw, err = hastate.EncodeBody(body)
		if err != nil {
			h.Logf("head: encoding %v journal body: %v", kind, err)
			return
		}
	}
	if err := h.Journal.Append(journal.Record{
		Kind: kind,
		Job:  uint64(job),
		Task: int32(task),
		Node: int32(node),
		At:   int64(at),
		Body: raw,
	}); err != nil {
		h.Logf("head: journal append (%v): %v", kind, err)
	}
}

// reqVersion leads the request bytes of a durable job record and names
// their layout: 2 is RenderBody's wire form. Version 1 was a gob stream,
// whose first byte is the length of a type descriptor and never 2, so a
// journal or snapshot written before the change is refused by version
// rather than misparsed.
const reqVersion = 2

// jobRecord captures a job's durable form: the original request (so a
// recovered head can re-dispatch and finalize it) plus each task's position
// in the dispatch lifecycle.
func (h *Head) jobRecord(lj *liveJob) hastate.JobRecord {
	rec := hastate.JobRecord{
		ID:      lj.job.ID,
		Key:     lj.req.Key,
		Class:   lj.job.Class,
		Action:  lj.job.Action,
		Tenant:  lj.job.Tenant,
		Dataset: lj.job.Dataset,
		Issued:  lj.job.Issued,
		Req:     lj.req.AppendBody([]byte{reqVersion}),
		Tasks:   make([]hastate.TaskInfo, len(lj.job.Tasks)),
	}
	for i := range lj.job.Tasks {
		rec.Tasks[i] = hastate.InfoOf(&lj.job.Tasks[i], lj.tasks[i].node)
	}
	return rec
}

// snapshot serves one snapshot request with the durable state as of this
// step: built on the dispatcher's thread, so it holds no half-applied
// mutation.
func (l *headLoop) snapshot(reply chan<- *hastate.Snapshot) {
	h := l.h
	h.mu.Lock()
	next := h.nextJobID
	h.mu.Unlock()
	snap := &hastate.Snapshot{
		At:        h.now(),
		NextJobID: next,
		Tables:    h.state.Dump(),
	}
	if h.qosc != nil {
		snap.QoS = h.qosc.Export()
	}
	for _, lj := range l.byAdmission() {
		snap.Jobs = append(snap.Jobs, h.jobRecord(lj))
	}
	reply <- snap
}

// Snapshot captures the head's complete durable state at one dispatch-loop
// instant — the base a journal replays on top of. Safe from any goroutine;
// valid after Start.
func (h *Head) Snapshot() (*hastate.Snapshot, error) {
	if !h.started {
		return nil, fmt.Errorf("service: Snapshot before Start")
	}
	reply := make(chan *hastate.Snapshot, 1)
	select {
	case h.snapCh <- reply:
	case <-h.doneCh:
		return nil, fmt.Errorf("service: Snapshot after dispatcher exit")
	}
	select {
	case snap := <-reply:
		return snap, nil
	case <-h.doneCh:
		return nil, fmt.Errorf("service: Snapshot after dispatcher exit")
	}
}

// Crash kills the head abruptly — no shutdown handshake to workers, no
// journal sync, connections dropped mid-whatever — and waits for the
// dispatcher to exit. The failure-injection hook behind the failover tests
// and example; a real head crash looks exactly like this from the outside.
func (h *Head) Crash() {
	if !h.started {
		return
	}
	h.crashOnce.Do(func() { close(h.crashCh) })
	<-h.doneCh
}

// closedSender returns a sender that rejects every Send with ErrClosed: the
// placeholder for a recovered head's worker slots before their workers have
// resynced. Attempted dispatches fail like sends to a dead node would, and
// the rejoin path swaps in a live sender.
func closedSender() *sender {
	s := &sender{queue: newFifo[transport.Message]()}
	s.queue.close()
	return s
}

// StartRecovered launches the head from a replayed hastate.State instead of
// a fresh table set — the warm-standby takeover (§5.10), through the same
// boot as Start. A request this build cannot decode refuses the whole state.
// No workers may have been added: every worker slot starts disconnected (its
// health demoted to suspect so nothing is dispatched blind) and workers
// reattach through the
// Rejoin path with Resync set, re-announcing their caches and replaying
// retained results for completed-but-unacked tasks. Recovered jobs resume
// where the journal left them: queued tasks reschedule, in-flight tasks get
// a reconnect grace before the deadline scanner presumes them lost, and
// fully-completed jobs wait for retained replays to deliver without any
// re-rendering.
func (h *Head) StartRecovered(st *hastate.State) error {
	if h.started {
		return fmt.Errorf("service: StartRecovered after Start")
	}
	if len(h.slots) != 0 {
		return fmt.Errorf("service: StartRecovered with pre-added workers; workers rejoin via resync")
	}
	l, err := h.boot(st)
	if err != nil {
		return err
	}
	go l.run()
	return nil
}

// restoreJob rebuilds the dispatcher-facing liveJob around a recovered job.
// The client connection is nil until the client re-submits its idempotency
// key and re-attaches.
func (h *Head) restoreJob(rj *hastate.RecoveredJob) (*liveJob, error) {
	job := rj.Job
	lj := &liveJob{
		job:   job,
		tasks: make([]liveTask, len(job.Tasks)),
		wall:  h.wall(),
	}
	req := rj.Rec.Req
	if len(req) == 0 || req[0] != reqVersion {
		return nil, fmt.Errorf("service: recovered job %d: request record is not version %d", job.ID, reqVersion)
	}
	if err := lj.req.ParseBody(req[1:]); err != nil {
		return nil, fmt.Errorf("service: recovered job %d: decoding request: %w", job.ID, err)
	}
	for i := range job.Tasks {
		if job.Tasks[i].State == core.TaskQueued {
			continue
		}
		t := &lj.tasks[i]
		t.node = rj.Rec.Tasks[i].Node // an assigned one counted on it by boot
		if h.DeadlineFactor > 0 {
			// Outstanding work gets a reconnect grace on top of its usual
			// deadline: the worker holding the result must have time to
			// resync and replay before the task is presumed lost.
			t.due = lj.wall.Add(h.DownAfter + h.taskDeadline(&job.Tasks[i]))
		}
	}
	return lj, nil
}

// retainedCap bounds the delivered-result store backing client re-attach;
// FIFO eviction, so the window covers the most recent deliveries.
const retainedCap = 128

// storeRetainedLocked records a delivered result under its idempotency key,
// with h.mu held: finalize must store the result and drop the key binding in
// one critical section so a racing re-submission sees exactly one of them.
func (h *Head) storeRetainedLocked(key uint64, res ResultBody) {
	if _, exists := h.retained[key]; !exists {
		h.retainedOrder = append(h.retainedOrder, key)
		if len(h.retainedOrder) > retainedCap {
			delete(h.retained, h.retainedOrder[0])
			h.retainedOrder = h.retainedOrder[1:]
		}
	}
	h.retained[key] = res
}

// dropKey removes a finished job's idempotency-key binding. byKey is
// h.mu-guarded; a later liveJob that reused the key is left alone.
func (h *Head) dropKey(lj *liveJob) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.dropKeyLocked(lj)
}

// dropKeyLocked is dropKey with h.mu already held.
func (h *Head) dropKeyLocked(lj *liveJob) {
	if key := lj.req.Key; key != 0 && h.byKey[key] == lj {
		delete(h.byKey, key)
	}
}
