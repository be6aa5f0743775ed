package core

import (
	"fmt"
	"slices"
	"time"

	"vizsched/internal/units"
)

// Backlog is the head's working job queue (§III-A), kept by both control
// planes: the jobs with unassigned tasks in the order they entered, and a
// count of the batch jobs among them, behind an optional Gate. Both planes
// admit through Admit and schedule through Pass. Between passes a job once
// pushed is queued exactly while Remaining > 0 and the plane has not
// removed it. The zero value is an empty, ungated backlog under
// DefaultBatchWindow.
type Backlog struct {
	gate      Gate // nil: arrivals enter the backlog itself
	jobs      []*Job
	batch     int    // batch jobs in jobs
	window    int    // batch jobs a pass is shown; zero is DefaultBatchWindow
	present   []*Job // Present's scratch when the window binds
	remaining []int  // Pass's scratch: each presented job's Remaining before Schedule
}

// PassResult is what one Pass decided, for the plane to carry out: the
// assignments, held to the scheduler contract and counted off their jobs'
// Remaining; the warms to start; the number of jobs presented and of those
// that lost a task; and the wall time Schedule took (Table III's "avg.
// cost"). Assignments and Warms are the scheduler's and the planner's
// slices, valid until the next pass.
type PassResult struct {
	Assignments []Assignment
	Warms       []PrefetchDirective
	Shown       int
	Touched     int
	Wall        time.Duration
}

// CycleOf returns s's scheduling period ω, or DefaultCycle when it has
// none: the horizon an idle pass warms over.
func CycleOf(s Scheduler) units.Duration {
	if c := s.Cycle(); c > 0 {
		return c
	}
	return DefaultCycle
}

// Pass runs one scheduling pass (§III-A). It first releases the gate's
// jobs: every interactive one, then batch jobs up to Room, each class in
// the gate's order. An empty backlog is then the deepest idle window there
// is: planner, when not nil, plans warms over [now, now+CycleOf(s)) and
// Schedule does not run. Otherwise s schedules Present() — timed alone —
// and every assignment is held to the contract: its task marked, its job's
// Remaining not taken below zero, its node Alive in head. A breach is a
// scheduler bug and panics. With a planner the warms are those s fitted
// into the cycle's leftover idle windows (PrefetchSource). The pass ends
// with Compact.
func (b *Backlog) Pass(now units.Time, s Scheduler, head *HeadState, planner PrefetchPlanner) PassResult {
	defer b.Compact()
	if b.gate != nil {
		b.jobs = b.gate.PopInteractive(b.jobs)
		if room := b.Room(); room > 0 {
			n := len(b.jobs)
			b.jobs = b.gate.PopBatch(b.jobs, room)
			b.batch += len(b.jobs) - n
		}
	}
	if len(b.jobs) == 0 {
		if planner == nil {
			return PassResult{}
		}
		return PassResult{Warms: planner.Plan(now, now.Add(CycleOf(s)), head)}
	}
	present := b.Present()
	remaining := b.remaining[:0]
	for _, j := range present {
		remaining = append(remaining, j.Remaining)
	}
	b.remaining = remaining

	start := time.Now()
	assignments := s.Schedule(now, present, head)
	r := PassResult{Assignments: assignments, Shown: len(present), Wall: time.Since(start)}

	for _, a := range assignments {
		t := a.Task
		if !t.Assigned {
			panic(fmt.Sprintf("core: scheduler %s returned unmarked assignment %v", s.Name(), t))
		}
		if t.Job.Remaining--; t.Job.Remaining < 0 {
			panic(fmt.Sprintf("core: scheduler %s assigned %v twice", s.Name(), t))
		}
		if !head.Alive(a.Node) {
			panic(fmt.Sprintf("core: scheduler %s assigned %v to unavailable node %d", s.Name(), t, a.Node))
		}
	}
	for i, j := range present {
		if j.Remaining < remaining[i] {
			r.Touched++
		}
	}
	if src, ok := s.(PrefetchSource); ok && planner != nil {
		r.Warms = src.PlannedPrefetches()
	}
	return r
}

// Gate is an admission layer in front of the backlog (qos.Controller): it
// decides an arrival, holds the jobs it let in until a pass releases them —
// all its interactive jobs, or up to max batch jobs, each class in its own
// order, appended to dst — and answers for what it holds. ShedQueued takes
// a held job back out, accounted as shed, and reports whether it held it.
type Gate interface {
	Admit(j *Job, now units.Time) (Verdict, *Job)
	PopInteractive(dst []*Job) []*Job
	PopBatch(dst []*Job, max int) []*Job
	QueueLen() int
	BatchBacklog() int
	OldestInteractive() *Job
	ShedQueued(j *Job) bool
}

// SetGate puts g in front of the backlog. A plane calls it once, when it
// builds its admission layer, before the first arrival.
func (b *Backlog) SetGate(g Gate) { b.gate = g }

// Verdict is admission's outcome for one arriving job.
type Verdict int

// Admission verdicts. Exactly one is returned per Admit call; with a gate,
// per tenant Issued = Admitted + Throttled + Rejected + ShedStale, an
// Overloaded job counting as admitted and then shed.
const (
	Admitted   Verdict = iota // queued on regular tokens
	Throttled                 // queued on borrowed tokens: the tenant's bucket is in debt
	Rejected                  // refused: bucket exhausted past the throttle window, or a new session on the reject-sessions rung
	ShedStale                 // an interactive frame dropped: its action has its bound of unfinished frames in flight
	Overloaded                // a batch job that arrived with the queue at its bound
)

// Entered reports whether the verdict queued the job.
func (v Verdict) Entered() bool { return v == Admitted || v == Throttled }

// String implements fmt.Stringer.
func (v Verdict) String() string {
	return [...]string{"admit", "throttle", "reject", "shed", "overload"}[v]
}

// Admission is what Admit decided for one arrival, for the plane to carry
// out: the verdict, and the queued jobs the arrival displaced — Stale, an
// older frame of its action it superseded, and Crowded, the oldest frame
// the queue bound shed to make room. Each displaced job has left the queue,
// and a gate has accounted it.
type Admission struct {
	Verdict
	Stale, Crowded *Job
}

// Admit decides arriving job j at now and, when the verdict Entered, queues
// it where arrivals wait: in the gate, or in the backlog without one. The
// rules run in order:
//  1. The gate, when there is one: its buckets, its session rung and its
//     own stale rule, whose victim is Stale. A refusal ends admission.
//  2. maxQueue, when positive, over the jobs queued ahead of j in the gate
//     and the backlog. At the bound a batch j is Overloaded (a gate sheds
//     it back out), and an interactive j crowds out the oldest undispatched
//     frame where arrivals wait.
//  3. dropStale, only without a gate: j supersedes the oldest undispatched
//     frame of its action.
//
// With no gate and zero limits Admit is Push, with no scan.
func (b *Backlog) Admit(j *Job, now units.Time, maxQueue int, dropStale bool) Admission {
	var a Admission
	ahead := len(b.jobs)
	if b.gate != nil {
		if a.Verdict, a.Stale = b.gate.Admit(j, now); !a.Entered() {
			return a
		}
		ahead += b.gate.QueueLen() - 1 // j is held already
	}
	if maxQueue > 0 && ahead >= maxQueue {
		switch {
		case j.Class == Batch:
			if b.gate != nil {
				b.gate.ShedQueued(j)
			}
			a.Verdict = Overloaded
			return a
		case b.gate == nil:
			a.Crowded = b.shedFrame(j.Action, false)
		default:
			if old := b.gate.OldestInteractive(); old != nil && old != j && b.gate.ShedQueued(old) {
				a.Crowded = old
			}
		}
	}
	if b.gate == nil {
		if dropStale && j.Class == Interactive {
			a.Stale = b.shedFrame(j.Action, true)
		}
		b.Push(j)
	}
	return a
}

// shedFrame removes and returns the oldest queued interactive job with no
// task assigned — of action only, when sameAction — or nil if there is none.
func (b *Backlog) shedFrame(action ActionID, sameAction bool) *Job {
	for i, q := range b.jobs {
		if q.Class == Interactive && q.Remaining == len(q.Tasks) && (!sameAction || q.Action == action) {
			b.jobs = slices.Delete(b.jobs, i, i+1)
			return q
		}
	}
	return nil
}

// Push appends j to the backlog itself, past any gate: admitted without
// one, adopted from another shard, or restored by a recovered head.
func (b *Backlog) Push(j *Job) {
	b.jobs = append(b.jobs, j)
	if j.Class == Batch {
		b.batch++
	}
}

// Requeue hands back assigned task t, presumed lost or taken off a draining
// node, unassigned and unpredicted; its job re-enters at the back if it had
// left.
func (b *Backlog) Requeue(t *Task) {
	t.Assigned, t.PredictedExec = false, 0
	if t.Job.Remaining == 0 {
		b.Push(t.Job)
	}
	t.Job.Remaining++
}

// Reclaim assigns requeued task t again, its first dispatch having
// completed after all; its job leaves if that was its last unassigned task.
func (b *Backlog) Reclaim(t *Task) {
	t.Assigned = true
	t.Job.Remaining--
	if t.Job.Remaining == 0 {
		b.Remove(t.Job)
	}
}

// Remove takes j out of the backlog; it does nothing if j is not queued.
func (b *Backlog) Remove(j *Job) {
	if i := slices.Index(b.jobs, j); i >= 0 {
		b.jobs = slices.Delete(b.jobs, i, i+1) // clears the vacated slot
		if j.Class == Batch {
			b.batch--
		}
	}
}

// Len returns the number of queued jobs, the gate's included.
func (b *Backlog) Len() int {
	if b.gate != nil {
		return len(b.jobs) + b.gate.QueueLen()
	}
	return len(b.jobs)
}

// Batch returns the number of queued batch jobs, the gate's included.
func (b *Backlog) Batch() int {
	if b.gate != nil {
		return b.batch + b.gate.BatchBacklog()
	}
	return b.batch
}

// Jobs returns the jobs in the backlog itself, past the gate, in enqueue
// order: the backlog's own slice, to read, not to keep or modify.
func (b *Backlog) Jobs() []*Job { return b.jobs }

// Room returns the batch slots left under the window, past the gate; it is
// negative when more batch jobs are queued than a pass is shown.
func (b *Backlog) Room() int { return b.limit() - b.batch }

func (b *Backlog) limit() int {
	if b.window > 0 {
		return b.window
	}
	return DefaultBatchWindow
}

// Present returns what a scheduling pass is shown: every queued interactive
// job and the window's oldest batch jobs, in enqueue order. While the window
// does not bind it is the backlog itself, so a Scheduler must not reorder
// or keep it. It is valid until the backlog next changes.
func (b *Backlog) Present() []*Job {
	if b.batch <= b.limit() {
		return b.jobs
	}
	present, batch := b.present[:0], 0
	for _, j := range b.jobs {
		if j.Class == Interactive {
			present = append(present, j)
		} else if batch < b.limit() {
			present = append(present, j)
			batch++
		}
	}
	b.present = present
	return present
}

// Compact drops the jobs with every task assigned, and clears Present's
// scratch so that neither holds on to a finished job.
func (b *Backlog) Compact() {
	clear(b.present[:cap(b.present)])
	b.present = b.present[:0]
	live := b.jobs[:0]
	for _, j := range b.jobs {
		if j.Remaining > 0 {
			live = append(live, j)
		} else if j.Class == Batch {
			b.batch--
		}
	}
	clear(b.jobs[len(live):])
	b.jobs = live
}

// UnstartedBatch counts the queued batch jobs with no task assigned: what a
// shard may give away. With a gate that is the gate's batch jobs.
func (b *Backlog) UnstartedBatch() int {
	if b.gate != nil {
		return b.gate.BatchBacklog()
	}
	n := 0
	for _, j := range b.jobs {
		if j.Class == Batch && j.Remaining == len(j.Tasks) {
			n++
		}
	}
	return n
}

// TakeUnstartedBatch removes and returns up to n of the oldest of them;
// with a gate, the next n the gate would release.
func (b *Backlog) TakeUnstartedBatch(n int) []*Job {
	if b.gate != nil {
		return b.gate.PopBatch(nil, n)
	}
	var out []*Job
	for _, j := range b.jobs {
		if len(out) < n && j.Class == Batch && j.Remaining == len(j.Tasks) {
			out = append(out, j)
		}
	}
	for _, j := range out {
		b.Remove(j)
	}
	return out
}
