package core

import (
	"slices"
	"testing"
)

// fifoFair is a FairQueue over one FIFO: every queued interactive job, then
// batch jobs up to the bound, each in arrival order.
type fifoFair struct{ jobs []*Job }

func (q *fifoFair) pop(dst []*Job, class Class, max int) []*Job {
	keep := q.jobs[:0]
	for _, j := range q.jobs {
		if j.Class == class && max > 0 {
			dst = append(dst, j)
			max--
		} else {
			keep = append(keep, j)
		}
	}
	q.jobs = keep
	return dst
}

func (q *fifoFair) PopInteractive(dst []*Job) []*Job    { return q.pop(dst, Interactive, len(q.jobs)) }
func (q *fifoFair) PopBatch(dst []*Job, max int) []*Job { return q.pop(dst, Batch, max) }

// refQueue is the working queue as both planes kept it before Backlog, the
// reference FuzzBacklog holds a Backlog to: one slice, the simulator's
// refill, window filter and compaction, its crash requeue, the live head's
// reclaim and unqueue, and the shard donor's take.
type refQueue struct {
	queue  []*Job
	window int
}

func (r *refQueue) refill(q FairQueue) {
	r.queue = q.PopInteractive(r.queue)
	batchHere := 0
	for _, j := range r.queue {
		if j.Class == Batch {
			batchHere++
		}
	}
	if batchHere < r.window {
		r.queue = q.PopBatch(r.queue, r.window-batchHere)
	}
}

func (r *refQueue) present() []*Job {
	present := r.queue
	if len(r.queue) > r.window {
		present = nil
		batch := 0
		for _, j := range r.queue {
			if j.Class == Interactive {
				present = append(present, j)
			} else if batch < r.window {
				present = append(present, j)
				batch++
			}
		}
	}
	return present
}

func (r *refQueue) compact() {
	live := r.queue[:0]
	for _, j := range r.queue {
		if j.Remaining > 0 {
			live = append(live, j)
		}
	}
	r.queue = live
}

func (r *refQueue) requeue(t *Task) {
	t.Assigned = false
	t.PredictedExec = 0
	if t.Job.Remaining == 0 {
		r.queue = append(r.queue, t.Job)
	}
	t.Job.Remaining++
}

func (r *refQueue) unqueue(j *Job) {
	for i, q := range r.queue {
		if q == j {
			r.queue = append(r.queue[:i], r.queue[i+1:]...)
			return
		}
	}
}

func (r *refQueue) reclaim(t *Task) {
	t.Assigned = true
	t.Job.Remaining--
	if t.Job.Remaining == 0 {
		r.unqueue(t.Job)
	}
}

func (r *refQueue) take(n int) []*Job {
	var out []*Job
	keep := r.queue[:0]
	for _, j := range r.queue {
		if len(out) < n && j.Class == Batch && j.Remaining == len(j.Tasks) {
			out = append(out, j)
			continue
		}
		keep = append(keep, j)
	}
	r.queue = keep
	return out
}

// backlogScript plays one decoded script on a Backlog and on the reference,
// each over its own copy of every job, so each side mutates jobs its own
// way. Job i of one side is job i of the other.
type backlogScript struct {
	t      *testing.T
	b      Backlog
	ref    refQueue
	fair   [2]fifoFair // the Backlog's, the reference's
	jobs   [2][]*Job
	gone   []bool // removed or taken: no longer the script's to touch
	data   []byte
	step   int
	window int
}

// next returns the script's next byte, zero once it is spent.
func (s *backlogScript) next() int {
	if len(s.data) == 0 {
		return 0
	}
	v := s.data[0]
	s.data = s.data[1:]
	return int(v)
}

func ids(jobs []*Job) []JobID {
	out := make([]JobID, len(jobs))
	for i, j := range jobs {
		out[i] = j.ID
	}
	return out
}

// newJob makes job len(jobs) on both sides: class and task count from arg.
func (s *backlogScript) newJob(arg int) (*Job, *Job) {
	var pair [2]*Job
	for side := range pair {
		j := &Job{ID: JobID(len(s.jobs[side]) + 1), Class: Class(arg & 1)}
		j.Tasks = make([]Task, 1+(arg>>1)%4)
		for i := range j.Tasks {
			j.Tasks[i] = Task{Job: j, Index: i}
		}
		j.Remaining = len(j.Tasks)
		s.jobs[side] = append(s.jobs[side], j)
		pair[side] = j
	}
	s.gone = append(s.gone, false)
	return pair[0], pair[1]
}

// pick returns the index of the arg-th job (cyclically) that ok accepts, or
// -1 if none does.
func (s *backlogScript) pick(arg int, ok func(j *Job) bool) int {
	var cand []int
	for i, j := range s.jobs[1] {
		if !s.gone[i] && ok(j) {
			cand = append(cand, i)
		}
	}
	if len(cand) == 0 {
		return -1
	}
	return cand[arg%len(cand)]
}

// task returns the index of the arg-th (cyclically) of job i's tasks whose
// Assigned flag equals assigned.
func (s *backlogScript) task(i, arg int, assigned bool) int {
	var cand []int
	for k, t := range s.jobs[1][i].Tasks {
		if t.Assigned == assigned {
			cand = append(cand, k)
		}
	}
	return cand[arg%len(cand)]
}

func (s *backlogScript) run() {
	for len(s.data) > 0 {
		s.step++
		op, arg := s.next()%8, s.next()
		switch op {
		case 0: // admission
			bj, rj := s.newJob(arg)
			s.b.Push(bj)
			s.ref.queue = append(s.ref.queue, rj)
		case 1: // admission into the fair queue
			bj, rj := s.newJob(arg)
			s.fair[0].jobs = append(s.fair[0].jobs, bj)
			s.fair[1].jobs = append(s.fair[1].jobs, rj)
		case 2: // a fair queue's release
			n := len(s.ref.queue)
			pulled := s.b.Refill(&s.fair[0])
			s.ref.refill(&s.fair[1])
			if !slices.Equal(ids(pulled), ids(s.ref.queue[n:])) {
				s.t.Fatalf("step %d: Refill pulled %v, want %v", s.step, ids(pulled), ids(s.ref.queue[n:]))
			}
		case 3: // a pass: assign up to arg%5 tasks of one presented job
			present, want := s.b.Present(), s.ref.present()
			s.check(present, want)
			if len(present) > 0 {
				p := s.next() % len(present)
				for _, j := range []*Job{present[p], want[p]} {
					n := arg % 5
					for k := range j.Tasks {
						if t := &j.Tasks[k]; !t.Assigned && n > 0 {
							t.Assigned = true
							j.Remaining--
							n--
						}
					}
				}
			}
			s.b.Compact()
			s.ref.compact()
			if slices.ContainsFunc(s.b.present[:cap(s.b.present)], func(j *Job) bool { return j != nil }) {
				s.t.Fatalf("step %d: Present's scratch pins a job after Compact", s.step)
			}
		case 4: // a crash or a drain hands back an assigned task
			i := s.pick(arg, func(j *Job) bool { return j.Remaining < len(j.Tasks) })
			if i >= 0 {
				k := s.task(i, s.next(), true)
				s.b.Requeue(&s.jobs[0][i].Tasks[k])
				s.ref.requeue(&s.jobs[1][i].Tasks[k])
			}
		case 5: // a requeued task's first dispatch completes after all
			i := s.pick(arg, func(j *Job) bool { return slices.Contains(s.ref.queue, j) })
			if i >= 0 {
				k := s.task(i, s.next(), false)
				s.b.Reclaim(&s.jobs[0][i].Tasks[k])
				s.ref.reclaim(&s.jobs[1][i].Tasks[k])
			}
		case 6: // a job given up on, queued or not (never one the fair queue holds)
			i := s.pick(arg, func(j *Job) bool { return !slices.Contains(s.fair[1].jobs, j) })
			if i >= 0 {
				s.b.Remove(s.jobs[0][i])
				s.ref.unqueue(s.jobs[1][i])
				s.gone[i] = true
			}
		case 7: // a shard donor gives away unstarted batch jobs
			got, want := s.b.TakeUnstartedBatch(arg%4), s.ref.take(arg%4)
			if !slices.Equal(ids(got), ids(want)) {
				s.t.Fatalf("step %d: took %v, want %v", s.step, ids(got), ids(want))
			}
			for _, j := range got {
				s.gone[j.ID-1] = true
			}
		}
		s.check(s.b.Present(), s.ref.present())
	}
}

// check holds the Backlog to the reference after a step.
func (s *backlogScript) check(present, want []*Job) {
	t := s.t
	t.Helper()
	if !slices.Equal(ids(present), ids(want)) {
		t.Fatalf("step %d: Present() = %v, want %v", s.step, ids(present), ids(want))
	}
	if got, want := ids(s.b.Jobs()), ids(s.ref.queue); !slices.Equal(got, want) {
		t.Fatalf("step %d: queued %v, want %v", s.step, got, want)
	}
	batch, unstarted := 0, 0
	for _, j := range s.ref.queue {
		if j.Class == Batch {
			batch++
			if j.Remaining == len(j.Tasks) {
				unstarted++
			}
		}
	}
	if s.b.Batch() != batch || s.b.Room() != s.window-batch || s.b.UnstartedBatch() != unstarted {
		t.Fatalf("step %d: Batch() = %d, Room() = %d, UnstartedBatch() = %d; want %d, %d, %d",
			s.step, s.b.Batch(), s.b.Room(), s.b.UnstartedBatch(), batch, s.window-batch, unstarted)
	}
	if batch <= s.window && len(present) > 0 && &present[0] != &s.b.Jobs()[0] {
		t.Fatalf("step %d: Present() copied a backlog the window does not bind", s.step)
	}
	queued, waiting := map[*Job]bool{}, map[*Job]bool{}
	for _, j := range s.b.Jobs() {
		queued[j] = true
	}
	for _, j := range s.fair[0].jobs {
		waiting[j] = true
	}
	for i, j := range s.jobs[0] {
		r := s.jobs[1][i]
		if queued[j] != (j.Remaining > 0 && !s.gone[i] && !waiting[j]) {
			t.Fatalf("step %d: job %d queued = %v with %d tasks unassigned, gone %v, in the fair queue %v",
				s.step, j.ID, queued[j], j.Remaining, s.gone[i], waiting[j])
		}
		if j.Remaining != r.Remaining || !slices.EqualFunc(j.Tasks, r.Tasks, func(a, b Task) bool {
			return a.Assigned == b.Assigned && a.PredictedExec == b.PredictedExec
		}) {
			t.Fatalf("step %d: job %d's tasks differ from the reference's", s.step, j.ID)
		}
	}
}

// FuzzBacklog plays scripts of the backlog's operations — admission,
// admission through a fair queue and its release, scheduling passes that
// assign tasks, requeue, reclaim, removal and a donor's take — on a Backlog
// and on the single-slice queue both planes kept before it. The first byte
// sets a window of 1–8 jobs so short scripts reach it; a script is at most
// 512 bytes, since every step checks every job. After every step
// Present() and the queued jobs must be the reference's, a job is queued
// exactly while it has unassigned tasks and was neither given up nor is
// waiting in the fair queue, Room() is the window less the queued batch
// jobs, and Present() shares the backlog while the window does not bind.
// The checked-in seeds include the simulator's old window test: 40 batch
// jobs of four tasks under a window of 4.
func FuzzBacklog(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 512 {
			return
		}
		s := &backlogScript{t: t, data: data[1:], window: 1 + int(data[0])%8}
		s.b.window, s.ref.window = s.window, s.window
		s.run()
	})
}
