package sim

import (
	"slices"

	"vizsched/internal/core"
	"vizsched/internal/des"
	"vizsched/internal/fracshare"
	"vizsched/internal/trace"
	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// This file is the node executor — the only one. A node is divisible
// capacity (Casanova, Stillwell and Vivien, arXiv:1106.4985): it runs up to
// K tasks at once in slots over a compute capacity of C, and a task's rate
// is its share, min(1, C/d) with d demand tasks running, divided by the I/O
// contention penalty. The paper's node (Definition 1) is K = C = 1, a
// dual-GPU node is K = C = 2, and fractional slots (§5.13) are K = Slots
// over C = GPUsPerNode; with C ≥ K every rate is exactly 1 and the float
// progress accounts hold exact integers, so those nodes complete to the
// nanosecond where integer arithmetic would.
//
// Every task's progress lives in a fracshare.Slot inside its execution
// record. Whenever a node's share layout changes (task start, completion,
// guest arrival, stall, resume) reprice folds elapsed progress into each
// slot at its old rate and sets the new one; a completion timer is re-armed
// only when its slot's rate changed. Completion instants therefore depend
// only on the piecewise-constant share function, which the fracshare
// package's property tests pin down.
//
// Determinism: start, reprice, stall, resume and a crash's requeue all walk
// node.order — a slice in task-start order — so the float accumulation
// order, the timer arming order and the requeue order are identical on
// every run.

// execution is one running task: its progress account, the completion
// timer armed from it, and the report the completion will deliver. Records
// are recycled through Engine.freeExec: fn is bound once, when the record is
// first made, and finds everything else in the record.
type execution struct {
	timer des.Timer
	fn    des.Event
	node  *node
	res   core.TaskResult
	slot  fracshare.Slot
	// io marks a task that holds its slot through a disk load — the tasks
	// that contend super-linearly; co marks a co-scheduled guest.
	io bool
	co bool
}

// access is the outcome of a task's access step — touching its chunk,
// loading it on a miss — and where the load's time is charged. Definition 1
// charges it to the slot; §V-C's I/O channel has already spent it when the
// task reaches a slot.
type access struct {
	miss    bool
	evicted []volume.ChunkID
	// inSlot is a load the slot is held through, jittered with the render;
	// tail is the rest of an absorbed warm, held too but not jittered — the
	// transfer in flight ends when it ends. channel is a load the I/O
	// channel served: part of the task's reported execution, not of its
	// slot's.
	inSlot, tail, channel units.Duration
}

// start fills n's free slots from its FIFO and re-prices the node. It is the
// one place a queued task becomes a running one, and also the resume path
// after a stall: re-pricing a node that is up restores every suspended rate.
func (e *Engine) start(n *node) {
	for !n.failed && !n.stalled && len(n.order) < e.slots {
		t, ok := n.ready.Pop()
		if !ok {
			break
		}
		n.order = append(n.order, e.run(n, t))
	}
	e.reprice(n)
}

// run puts one task in a slot of n, suspended; reprice rates and arms it. A
// task the I/O channel made ready brings its access with it; any other pays
// Definition 1's access here, load and all.
func (e *Engine) run(n *node, t *core.Task) *execution {
	if e.pinned[t] {
		delete(e.pinned, t)
		n.mem.Unpin(t.Chunk)
	}
	a, ready := n.accessed[t]
	if ready {
		delete(n.accessed, t)
		n.mem.Touch(t.Chunk)
	} else {
		a = e.accessInSlot(n, t)
	}
	hold := e.jitter(e.renderCost(n, t)+a.inSlot) + a.tail
	// Busy time is slot occupancy: the point of the three-thread design is
	// that a load on the I/O channel does not hold the GPU.
	e.report.BusyAdd(hold)

	var ex *execution
	if last := len(e.freeExec) - 1; last >= 0 {
		ex, e.freeExec = e.freeExec[last], e.freeExec[:last]
	} else {
		ex = new(execution)
		ex.fn = func(*des.Simulator) { e.complete(ex) }
	}
	ex.node = n
	// Exec is full-share work — the head's prediction tables stay calibrated
	// in work units; sharing stretches only the completion instant.
	ex.res = core.TaskResult{
		Task: t, Node: n.id, Hit: !a.miss,
		Exec: hold + a.channel, Predicted: t.PredictedExec,
		Evicted: a.evicted,
	}
	ex.slot, ex.io = fracshare.NewSlot(hold, e.sim.Now()), a.inSlot > 0
	return ex
}

// accessInSlot is Definition 1's access step: the task touches its chunk
// from the slot and a miss holds the slot through the load. A warm in flight
// for this very chunk is absorbed — the task pays only the transfer's
// remaining time instead of a full miss.
func (e *Engine) accessInSlot(n *node, t *core.Task) (a access) {
	now := e.sim.Now()
	absorbing := n.pfActive && n.pfChunk == t.Chunk
	if absorbing {
		n.pfTimer.Cancel()
		n.pfTimer = des.Timer{}
		n.pfActive = false
		n.pfWaiters = nil
		if a.tail = n.pfEnd.Sub(now); a.tail < 0 {
			a.tail = 0
		}
		e.pref.Cancel(n.id, t.Chunk)
		e.head.NotePrefetchHidden()
		e.emit(trace.Event{Kind: trace.PrefetchHit, Job: t.Job.ID, Class: t.Job.Class, Task: t.Index, Node: n.id, Chunk: t.Chunk, Dur: a.tail})
	}
	if n.mem.Touch(t.Chunk) {
		e.demandTouch(n, t)
	} else {
		a.miss = true
		a.evicted = n.mem.Insert(t.Chunk, t.Size)
		if !absorbing {
			a.inSlot = scaleIO(e.loadTime(n, t.Size), n.ioScale)
		}
		e.report.LoadAdd()
	}
	e.report.TaskAccess(!a.miss)
	e.report.EvictionsAdd(len(a.evicted))
	e.markStarted(t.Job, now)
	return a
}

// demandTouch tells the prefetch accounting that demand work hit a chunk; a
// hit on a warmed chunk is the prefetcher's payoff.
func (e *Engine) demandTouch(n *node, t *core.Task) {
	if e.pref != nil && e.head.DemandTouchPrefetched(t.Chunk, n.id) {
		e.emit(trace.Event{Kind: trace.PrefetchHit, Job: t.Job.ID, Class: t.Job.Class, Task: t.Index, Node: n.id, Chunk: t.Chunk, Hit: true})
	}
}

// loadTime is what bringing a chunk of the given size into n's main memory
// costs on a healthy disk. With the two-level hierarchy the load stops at
// main memory; renderCost charges the upload on the GPU miss.
func (e *Engine) loadTime(n *node, size units.Bytes) units.Duration {
	if n.gpu != nil {
		return e.cfg.Model.DiskRate.TimeFor(size)
	}
	return e.cfg.Model.IOTime(size)
}

// reprice recomputes every slot's rate on one node. Demand tasks share the
// node's capacity equally, min(1, C/d) each; the guest runs at CoShare only
// while the node has no demand task — so a demand start preempts it to rate
// zero in the same event, and a demand drain resumes it. Tasks holding a
// slot through a disk load additionally divide by the super-linear
// contention penalty. A node that is down or stalled rates everything zero,
// which is how a stall suspends: the stalled span accrues no progress and
// resume re-prices from exactly where each task stopped.
func (e *Engine) reprice(n *node) {
	now := e.sim.Now()
	d := len(n.order)
	share, coShare := 0.0, 0.0
	if n.failed || n.stalled {
		// Down: every rate is zero.
	} else if d > 0 {
		share = min(1, e.capacity/float64(d))
	} else if n.guest != nil {
		coShare = e.coShare
	}

	// Loads contend with each other: count the demand tasks holding a slot
	// through one. The guest runs only alone, so it never pays the penalty.
	nIO := 0
	for _, ex := range n.order {
		if ex.io {
			nIO++
		}
	}
	penalty := fracshare.IOPenalty(nIO, e.gamma)

	for _, ex := range n.order {
		if ex.io {
			e.setRate(ex, share, penalty, now)
		} else {
			e.setRate(ex, share, 1, now)
		}
	}
	if g := n.guest; g != nil {
		was := g.slot.Suspended()
		e.setRate(g, coShare, 1, now)
		if is := g.slot.Suspended(); is != was {
			if is {
				e.frac.out.Preemptions++
			} else {
				e.frac.out.Resumes++
			}
		}
	}
	if e.frac != nil {
		busy := coShare
		if d > 0 {
			busy = min(1, float64(d)/e.capacity)
		}
		e.frac.meter.Set(int(n.id), busy, now)
		e.frac.coMeter.Set(int(n.id), coShare, now)
	}
}

// setRate re-prices one execution's slot; when the rate changed it re-arms
// the completion timer from the remaining time at the new rate. A suspended
// slot keeps no timer.
func (e *Engine) setRate(ex *execution, share, penalty float64, now units.Time) {
	if !ex.slot.SetRate(now, share, penalty) {
		return
	}
	ex.timer.Cancel()
	ex.timer = des.Timer{}
	if rem, ok := ex.slot.Remaining(now); ok {
		ex.timer = e.sim.After(rem, ex.fn)
	}
}

// recycle returns a finished or aborted execution's record for reuse. Its
// timer must have fired or been cancelled.
func (e *Engine) recycle(ex *execution) {
	*ex = execution{fn: ex.fn}
	e.freeExec = append(e.freeExec, ex)
}

// complete finishes a task on its node when its slot's timer lands. When
// the head is reachable the report is accounted immediately; when it is not
// (head outage or the node's partition), the node retains the report for
// reconciliation and keeps draining its local queue — the data plane
// outlives the control plane (§5.10). The freed slot refills and the
// survivors re-price.
func (e *Engine) complete(ex *execution) {
	n, res := ex.node, ex.res
	res.Finished = e.sim.Now()
	if ex.co {
		n.guest = nil
		// A node retired by an expired drain lets its guest finish; the head
		// forgot the guest when it retired the node.
		if e.nodes[n.id] == n {
			e.head.CoDone(n.id)
		}
		e.frac.out.CoCompleted++
		e.frac.out.CoWork += res.Exec
	} else {
		i := slices.Index(n.order, ex)
		n.order = slices.Delete(n.order, i, i+1)
	}
	e.recycle(ex)
	e.emit(trace.Event{
		Kind: trace.TaskDone, Job: res.Task.Job.ID, Class: res.Task.Job.Class,
		Task: res.Task.Index, Node: n.id, Chunk: res.Task.Chunk,
		Dur: res.Exec, Hit: res.Hit,
	})
	if e.headDown || n.partitioned {
		n.pendingResults = append(n.pendingResults, res)
		e.report.Recovery.ResultDeferred()
	} else {
		e.account(res)
	}
	e.start(n)
}
