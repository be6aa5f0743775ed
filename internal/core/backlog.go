package core

import "slices"

// Backlog is the head's working job queue (§III-A), kept by both control
// planes: the jobs with unassigned tasks in the order they entered, and a
// count of the batch jobs among them. A pass is shown Present(); the plane
// applies the assignments, each decrementing its job's Remaining, and calls
// Compact. Between passes a job once pushed is queued exactly while
// Remaining > 0 and the plane has not removed it. The zero value is an
// empty backlog under DefaultBatchWindow.
type Backlog struct {
	jobs    []*Job
	batch   int    // batch jobs in jobs
	window  int    // batch jobs a pass is shown; zero is DefaultBatchWindow
	present []*Job // Present's scratch when the window binds
}

// FairQueue is the admission layer's queue as Refill reads it
// (qos.Controller): all its interactive jobs, or up to max batch jobs, each
// class in its fair order, appended to dst.
type FairQueue interface {
	PopInteractive(dst []*Job) []*Job
	PopBatch(dst []*Job, max int) []*Job
}

// Push appends j: admitted, released by a fair queue, adopted from another
// shard, or restored by a recovered head.
func (b *Backlog) Push(j *Job) {
	b.jobs = append(b.jobs, j)
	if j.Class == Batch {
		b.batch++
	}
}

// Refill pulls q's interactive jobs and as many batch jobs as there is Room
// for, and returns them: the backlog's tail, valid until it next changes.
func (b *Backlog) Refill(q FairQueue) []*Job {
	n := len(b.jobs)
	b.jobs = q.PopInteractive(b.jobs)
	if room := b.Room(); room > 0 {
		m := len(b.jobs)
		b.jobs = q.PopBatch(b.jobs, room)
		b.batch += len(b.jobs) - m
	}
	return b.jobs[n:]
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

// Len returns the number of queued jobs.
func (b *Backlog) Len() int { return len(b.jobs) }

// Batch returns the number of queued batch jobs.
func (b *Backlog) Batch() int { return b.batch }

// Jobs returns the queued jobs in enqueue order: the backlog's own slice,
// to read, not to keep or modify.
func (b *Backlog) Jobs() []*Job { return b.jobs }

// Room returns the batch slots left under the window; it is negative when
// more batch jobs are queued than a pass is shown.
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
// shard may give away.
func (b *Backlog) UnstartedBatch() int {
	n := 0
	for _, j := range b.jobs {
		if j.Class == Batch && j.Remaining == len(j.Tasks) {
			n++
		}
	}
	return n
}

// TakeUnstartedBatch removes and returns up to n of the oldest of them.
func (b *Backlog) TakeUnstartedBatch(n int) []*Job {
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
