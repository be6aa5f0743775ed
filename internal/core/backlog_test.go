package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// fifoFair is a Gate over one FIFO that admits every job: every queued
// interactive job, then batch jobs up to the bound, each in arrival order.
// With stale set, an interactive arrival supersedes the oldest held frame of
// its action, as the QoS gate's shed-stale rule does.
type fifoFair struct {
	jobs  []*Job
	stale bool
}

func (q *fifoFair) Admit(j *Job, now units.Time) (Verdict, *Job) {
	var victim *Job
	if i := slices.IndexFunc(q.jobs, func(o *Job) bool {
		return q.stale && j.Class == Interactive && o.Class == Interactive && o.Action == j.Action
	}); i >= 0 {
		victim = q.jobs[i]
		q.jobs = slices.Delete(q.jobs, i, i+1)
	}
	q.jobs = append(q.jobs, j)
	return Admitted, victim
}

func (q *fifoFair) QueueLen() int { return len(q.jobs) }

func (q *fifoFair) BatchBacklog() int {
	n := 0
	for _, j := range q.jobs {
		if j.Class == Batch {
			n++
		}
	}
	return n
}

func (q *fifoFair) OldestInteractive() *Job {
	if i := slices.IndexFunc(q.jobs, func(j *Job) bool { return j.Class == Interactive }); i >= 0 {
		return q.jobs[i]
	}
	return nil
}

func (q *fifoFair) ShedQueued(j *Job) bool {
	i := slices.Index(q.jobs, j)
	if i >= 0 {
		q.jobs = slices.Delete(q.jobs, i, i+1)
	}
	return i >= 0
}

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
// admission, reclaim and unqueue, and the shard donor's take.
type refQueue struct {
	queue  []*Job
	window int
}

func (r *refQueue) refill(q *fifoFair) {
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
	t.State = TaskQueued
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

// admit is the live head's admission as it was written once per path. With
// fair queue q as the gate (gated): admitted into q, then at the bound over
// both queues a batch j is taken back out and an interactive j sheds q's
// oldest frame. Without: at the bound a batch j is refused and an
// interactive j sheds the oldest undispatched frame, then dropStale sheds
// the oldest undispatched frame of j's action, and j is queued. It returns
// the shed jobs in the order shed, and whether j was refused.
func (r *refQueue) admit(q *fifoFair, gated bool, j *Job, maxQueue int, dropStale bool) (shed []*Job, refused bool) {
	undispatched := func(o *Job) bool { return o.Class == Interactive && int(o.Remaining) == len(o.Tasks) }
	if gated {
		q.jobs = append(q.jobs, j)
		if maxQueue > 0 && len(q.jobs)+len(r.queue) > maxQueue {
			if j.Class == Batch {
				q.jobs = q.jobs[:len(q.jobs)-1]
				return nil, true
			}
			if old := q.OldestInteractive(); old != j {
				q.ShedQueued(old)
				shed = append(shed, old)
			}
		}
		return shed, false
	}
	if maxQueue > 0 && len(r.queue) >= maxQueue {
		if j.Class == Batch {
			return nil, true
		}
		if i := slices.IndexFunc(r.queue, undispatched); i >= 0 {
			shed = append(shed, r.queue[i])
			r.unqueue(r.queue[i])
		}
	}
	if dropStale && j.Class == Interactive {
		if i := slices.IndexFunc(r.queue, func(o *Job) bool { return undispatched(o) && o.Action == j.Action }); i >= 0 {
			shed = append(shed, r.queue[i])
			r.unqueue(r.queue[i])
		}
	}
	r.queue = append(r.queue, j)
	return shed, false
}

func (r *refQueue) reclaim(t *Task) {
	t.State = TaskAssigned
	t.Job.Remaining--
	if t.Job.Remaining == 0 {
		r.unqueue(t.Job)
	}
}

func (r *refQueue) take(n int) []*Job {
	var out []*Job
	keep := r.queue[:0]
	for _, j := range r.queue {
		if len(out) < n && j.Class == Batch && int(j.Remaining) == len(j.Tasks) {
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
	sched  stubScheduler // the Backlog's passes
	head   *HeadState
	ref    refQueue
	fair   [2]fifoFair // the Backlog's gate, the reference's
	gated  bool        // fair[0] is the Backlog's gate
	jobs   [2][]*Job
	gone   []bool // removed, shed, refused or taken: no longer the script's to touch
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

// newJob makes job len(jobs) on both sides: class, task count and action
// from arg.
func (s *backlogScript) newJob(arg int) (*Job, *Job) {
	var pair [2]*Job
	for side := range pair {
		j := &Job{ID: JobID(len(s.jobs[side]) + 1), Class: Class(arg & 1), Action: ActionID(arg >> 3 % 3)}
		j.Tasks = make([]Task, 1+(arg>>1)%4)
		for i := range j.Tasks {
			j.Tasks[i] = Task{Job: j, Index: i}
		}
		j.Remaining = int32(len(j.Tasks))
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

// in reports whether job j has a task in one of states.
func in(j *Job, states ...TaskState) bool {
	return slices.ContainsFunc(j.Tasks, func(t Task) bool { return slices.Contains(states, t.State) })
}

// task returns the index of the arg-th (cyclically) of job i's tasks in one
// of states.
func (s *backlogScript) task(i, arg int, states ...TaskState) int {
	var cand []int
	for k, t := range s.jobs[1][i].Tasks {
		if slices.Contains(states, t.State) {
			cand = append(cand, k)
		}
	}
	return cand[arg%len(cand)]
}

func (s *backlogScript) run() {
	for len(s.data) > 0 {
		s.step++
		// Ops 8 and 9 came last: a byte below 8 names the op it always did.
		op, arg := s.next()%16, s.next()
		if op >= 10 {
			op -= 8
		}
		switch op {
		case 0: // admission
			bj, rj := s.newJob(arg)
			s.b.Push(bj)
			s.ref.queue = append(s.ref.queue, rj)
		case 1, 2: // admission, with the queue bound and DropStale from a byte of op 2's
			maxQueue, dropStale := 0, false
			if op == 2 {
				lim := s.next()
				maxQueue, dropStale = lim%4, lim&4 != 0
			}
			bj, rj := s.newJob(arg)
			a := s.b.Admit(bj, 0, maxQueue, dropStale)
			shed, refused := s.ref.admit(&s.fair[1], s.gated, rj, maxQueue, dropStale)
			var got []*Job
			for _, v := range []*Job{a.Crowded, a.Stale} {
				if v != nil {
					got = append(got, v)
				}
			}
			verdict := Admitted
			if refused {
				verdict = Overloaded
			}
			if a.Verdict != verdict || !slices.Equal(ids(got), ids(shed)) {
				s.t.Fatalf("step %d: admitting job %d: %v, crowded out %v, superseded %v; want %v, shed %v",
					s.step, bj.ID, a.Verdict, a.Crowded, a.Stale, verdict, ids(shed))
			}
			for _, j := range shed {
				s.gone[j.ID-1] = true
			}
			s.gone[rj.ID-1] = refused
		case 3: // a pass: the gate's release, then up to arg%5 tasks of one presented job assigned
			s.ref.refill(&s.fair[1])
			want := s.ref.present()
			p, wantTouched := -1, 0
			s.sched.assign = func(present []*Job) []Assignment {
				s.check(present, want)
				p = s.next() % len(present)
				return place(0, unassigned(present[p], arg%5)...)
			}
			got := s.b.Pass(0, &s.sched, s.head, nil)
			if p >= 0 {
				if placed := unassigned(want[p], arg%5); len(placed) > 0 {
					for _, t := range placed {
						t.State = TaskAssigned
						t.Job.Remaining--
					}
					wantTouched = 1
				}
			}
			s.ref.compact()
			if got.Shown != len(want) || got.Touched != wantTouched {
				s.t.Fatalf("step %d: the pass showed %d jobs and touched %d, want %d and %d",
					s.step, got.Shown, got.Touched, len(want), wantTouched)
			}
			if slices.ContainsFunc(s.b.present[:cap(s.b.present)], func(j *Job) bool { return j != nil }) {
				s.t.Fatalf("step %d: Present's scratch pins a job after Compact", s.step)
			}
		case 4: // a crash, a drain or a backoff's end hands back an assigned or held task
			i := s.pick(arg, func(j *Job) bool { return in(j, TaskAssigned, TaskHeld) })
			if i >= 0 {
				k := s.task(i, s.next(), TaskAssigned, TaskHeld)
				s.b.Requeue(&s.jobs[0][i].Tasks[k])
				s.ref.requeue(&s.jobs[1][i].Tasks[k])
			}
		case 5: // a requeued task's first dispatch completes after all
			i := s.pick(arg, func(j *Job) bool { return slices.Contains(s.ref.queue, j) })
			if i >= 0 {
				k := s.task(i, s.next(), TaskQueued)
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
		case 7: // a shard donor gives away unstarted batch jobs: the gate's, if there is one
			got := s.b.TakeUnstartedBatch(arg % 4)
			want := s.fair[1].PopBatch(nil, arg%4)
			if !s.gated {
				want = s.ref.take(arg % 4)
			}
			if !slices.Equal(ids(got), ids(want)) {
				s.t.Fatalf("step %d: took %v, want %v", s.step, ids(got), ids(want))
			}
			for _, j := range got {
				s.gone[j.ID-1] = true
			}
		case 8: // an assigned task misses its deadline
			i := s.pick(arg, func(j *Job) bool { return in(j, TaskAssigned) })
			if i >= 0 {
				k := s.task(i, s.next(), TaskAssigned)
				s.jobs[0][i].Tasks[k].Move(TaskHeld)
				s.jobs[1][i].Tasks[k].State = TaskHeld
			}
		case 9: // an assigned or held task completes
			i := s.pick(arg, func(j *Job) bool { return in(j, TaskAssigned, TaskHeld) })
			if i >= 0 {
				k := s.task(i, s.next(), TaskAssigned, TaskHeld)
				s.jobs[0][i].Tasks[k].Move(TaskDone)
				r := s.jobs[1][i]
				r.Tasks[k].State = TaskDone
				r.Done++
			}
		}
		s.check(s.b.Present(), s.ref.present())
	}
}

// check holds every job to its task records, then the Backlog to the
// reference, after a step.
func (s *backlogScript) check(present, want []*Job) {
	t := s.t
	t.Helper()
	for _, j := range s.jobs[0] {
		if err := CheckRecords(j); err != nil {
			t.Fatalf("step %d: %v", s.step, err)
		}
	}
	if !slices.Equal(ids(present), ids(want)) {
		t.Fatalf("step %d: Present() = %v, want %v", s.step, ids(present), ids(want))
	}
	if got, want := ids(s.b.Jobs()), ids(s.ref.queue); !slices.Equal(got, want) {
		t.Fatalf("step %d: queued %v, want %v", s.step, got, want)
	}
	if got, want := ids(s.fair[0].jobs), ids(s.fair[1].jobs); !slices.Equal(got, want) {
		t.Fatalf("step %d: the gate holds %v, want %v", s.step, got, want)
	}
	batch, unstarted := 0, 0
	for _, j := range s.ref.queue {
		if j.Class == Batch {
			batch++
			if int(j.Remaining) == len(j.Tasks) {
				unstarted++
			}
		}
	}
	held := s.fair[1].BatchBacklog()
	if s.gated {
		unstarted = held
	}
	if s.b.Len() != len(s.ref.queue)+len(s.fair[1].jobs) || s.b.Batch() != batch+held ||
		s.b.Room() != s.window-batch || s.b.UnstartedBatch() != unstarted {
		t.Fatalf("step %d: Len() = %d, Batch() = %d, Room() = %d, UnstartedBatch() = %d; want %d, %d, %d, %d",
			s.step, s.b.Len(), s.b.Batch(), s.b.Room(), s.b.UnstartedBatch(),
			len(s.ref.queue)+len(s.fair[1].jobs), batch+held, s.window-batch, unstarted)
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
		if j.Remaining != r.Remaining || j.Done != r.Done || j.MaxExec != r.MaxExec || !slices.EqualFunc(j.Tasks, r.Tasks, func(a, b Task) bool {
			return a.State == b.State && a.PredictedExec == b.PredictedExec
		}) {
			t.Fatalf("step %d: job %d's tasks differ from the reference's", s.step, j.ID)
		}

	}
}

// FuzzBacklog plays scripts of the backlog's operations — a push past the
// gate, admission with and without the queue bound and DropStale,
// scheduling passes that release the gate and assign tasks, requeue,
// reclaim, removal and a donor's take — on a Backlog and on the
// single-slice queue both planes kept before it; a pass goes through Pass,
// whose Shown must count what the reference presents and Touched the job
// it assigned from. The first byte sets a window of 1–8 jobs so short
// scripts reach it, and its bit 3 installs a FIFO fair queue as the gate; a
// script is at most 512 bytes, since every step checks every job. After
// every step Present(), the queued jobs and the gate's must be the
// reference's, a job is queued exactly while it has unassigned tasks and
// was neither given up, shed nor refused, nor is waiting in the gate,
// Room() is the window less the queued batch jobs, and Present() shares
// the backlog while the window does not bind. The checked-in seeds include
// the simulator's old window test: 40 batch jobs of four tasks under a
// window of 4.
func FuzzBacklog(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 512 {
			return
		}
		s := &backlogScript{t: t, data: data[1:], window: 1 + int(data[0])%8, gated: data[0]&8 != 0,
			head: NewHeadState(1, units.GB, DefaultCostModel())}
		s.b.window, s.ref.window = s.window, s.window
		if s.gated {
			s.b.SetGate(&s.fair[0])
		}
		s.run()
	})
}

// stubScheduler is a Scheduler whose passes make the assignments assign
// returns and whose planner fitted warms into them.
type stubScheduler struct {
	cycle  units.Duration
	assign func(queue []*Job) []Assignment
	warms  []PrefetchDirective
	calls  int
}

func (s *stubScheduler) Name() string                           { return "stub" }
func (s *stubScheduler) Trigger() Trigger                       { return Periodic }
func (s *stubScheduler) Cycle() units.Duration                  { return s.cycle }
func (s *stubScheduler) PlannedPrefetches() []PrefetchDirective { return s.warms }

func (s *stubScheduler) Schedule(now units.Time, queue []*Job, head *HeadState) []Assignment {
	s.calls++
	return s.assign(queue)
}

// windowPlanner plans warms over the window it records.
type windowPlanner struct {
	from, to units.Time
	calls    int
	warms    []PrefetchDirective
}

func (p *windowPlanner) Plan(now, lambda units.Time, head *HeadState) []PrefetchDirective {
	p.from, p.to = now, lambda
	p.calls++
	return p.warms
}

// unassigned returns up to n of j's unassigned tasks, first first.
func unassigned(j *Job, n int) []*Task {
	var out []*Task
	for i := range j.Tasks {
		if t := &j.Tasks[i]; !t.Assigned() && len(out) < n {
			out = append(out, t)
		}
	}
	return out
}

// place marks tasks assigned, as a Scheduler does, and places each on node.
func place(node NodeID, tasks ...*Task) []Assignment {
	var out []Assignment
	for _, t := range tasks {
		t.State = TaskAssigned
		out = append(out, Assignment{Task: t, Node: node})
	}
	return out
}

// TestBacklogPassContract holds Pass to what it promises both planes: a
// scheduler that returns an unmarked task, assigns one twice, or places one
// on a node that is not Alive — Down, Suspect or Draining — panics, naming
// the scheduler; an empty backlog plans warms over [now, now+CycleOf(s))
// without calling Schedule; the scheduler's fitted warms are read back only
// when a planner is given; and Touched counts the presented jobs that lost
// a task.
func TestBacklogPassContract(t *testing.T) {
	const now = units.Time(3 * units.Second)
	idle := PrefetchDirective{Node: 1, Chunk: volume.ChunkID{Dataset: 1}, Size: units.MB}
	fitted := PrefetchDirective{Node: 2, Chunk: volume.ChunkID{Dataset: 2}, Size: units.MB}
	first := func(q []*Job) []Assignment { return place(1, &q[0].Tasks[0]) }
	for _, tc := range []struct {
		name    string
		cycle   units.Duration
		jobs    []int // task counts of the queued jobs
		health  func(h *HeadState)
		assign  func(q []*Job) []Assignment
		planner bool
		panics  string // in the panic message; empty for none
		calls   int    // Schedule calls
		warms   []PrefetchDirective
		touched int
		queued  int            // jobs left queued
		plan    units.Duration // the window an idle pass plans over; zero for none
	}{
		{name: "unmarked", jobs: []int{2}, panics: "unmarked",
			assign: func(q []*Job) []Assignment { return []Assignment{{Task: &q[0].Tasks[0], Node: 0}} }},
		{name: "twice", jobs: []int{1}, panics: "twice",
			assign: func(q []*Job) []Assignment { a := first(q); return append(a, a...) }},
		{name: "down", jobs: []int{1}, assign: first, panics: "unavailable node 1",
			health: func(h *HeadState) { h.MarkFailed(1) }},
		{name: "suspect", jobs: []int{1}, assign: first, panics: "unavailable node 1",
			health: func(h *HeadState) { h.MarkSuspect(1) }},
		{name: "draining", jobs: []int{1}, assign: first, panics: "unavailable node 1",
			health: func(h *HeadState) { h.MarkDraining(1) }},
		{name: "idle at the default cycle", planner: true, warms: []PrefetchDirective{idle}, plan: DefaultCycle},
		{name: "idle at the scheduler's cycle", cycle: 5 * units.Millisecond, planner: true,
			warms: []PrefetchDirective{idle}, plan: 5 * units.Millisecond},
		{name: "idle without a planner"},
		{name: "fitted warms with a planner", jobs: []int{2}, assign: first, planner: true,
			calls: 1, warms: []PrefetchDirective{fitted}, touched: 1, queued: 1},
		{name: "no warms without a planner", jobs: []int{2}, assign: first, calls: 1, touched: 1, queued: 1},
		{name: "touched", jobs: []int{2, 3, 1, 2}, calls: 1, touched: 2, queued: 2,
			assign: func(q []*Job) []Assignment { return place(0, &q[0].Tasks[0], &q[0].Tasks[1], &q[2].Tasks[0]) }},
		{name: "nothing assigned", jobs: []int{2, 1}, calls: 1, queued: 2,
			assign: func(q []*Job) []Assignment { return nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			head := NewHeadState(3, units.GB, DefaultCostModel())
			if tc.health != nil {
				tc.health(head)
			}
			var b Backlog
			for i, n := range tc.jobs {
				j := &Job{ID: JobID(i + 1), Tasks: make([]Task, n), Remaining: int32(n)}
				for k := range j.Tasks {
					j.Tasks[k] = Task{Job: j, Index: k}
				}
				b.Push(j)
			}
			s := &stubScheduler{cycle: tc.cycle, assign: tc.assign, warms: []PrefetchDirective{fitted}}
			p := &windowPlanner{warms: []PrefetchDirective{idle}}
			var planner PrefetchPlanner
			if tc.planner {
				planner = p
			}
			defer func() {
				msg := fmt.Sprint(recover())
				if tc.panics == "" && msg != "<nil>" {
					t.Fatalf("panicked: %s", msg)
				}
				if tc.panics != "" && (!strings.Contains(msg, tc.panics) || !strings.Contains(msg, "scheduler stub")) {
					t.Fatalf("panic %q, want one naming scheduler stub and %q", msg, tc.panics)
				}
			}()
			r := b.Pass(now, s, head, planner)
			if tc.panics != "" {
				return
			}
			if s.calls != tc.calls || !slices.Equal(r.Warms, tc.warms) || r.Touched != tc.touched || b.Len() != tc.queued {
				t.Fatalf("Schedule called %d times, warms %v, touched %d, %d queued; want %d, %v, %d, %d",
					s.calls, r.Warms, r.Touched, b.Len(), tc.calls, tc.warms, tc.touched, tc.queued)
			}
			if tc.plan == 0 && p.calls != 0 || tc.plan > 0 && (p.calls != 1 || p.from != now || p.to != now.Add(tc.plan)) {
				t.Fatalf("planner called %d times, last over [%v, %v); want %d calls over [%v, %v)",
					p.calls, p.from, p.to, min(1, int(tc.plan)), now, now.Add(tc.plan))
			}
		})
	}
}

// TestBacklogAdmission holds Admit to its rules, once without a gate and
// once behind a FIFO gate with a stale rule of its own. The queued jobs are
// named by class, ID and action ("I1A" is interactive job 1 of action A,
// "B2" a batch job); a "*" marks one with a task already assigned, which
// waits past the gate and is never displaced. Without a gate MaxQueue sheds
// before DropStale; behind one the gate's stale rule runs first.
func TestBacklogAdmission(t *testing.T) {
	for _, tc := range []struct {
		name      string
		queued    []string
		arrival   string
		maxQueue  int
		dropStale bool
		verdict   Verdict
		crowded   JobID // 0 for none
		stale     JobID
		left      []JobID // the backlog's jobs, then the gate's
	}{
		{name: "zero limits", queued: []string{"I1A", "B2"}, arrival: "I3A",
			left: []JobID{1, 2, 3}},
		{name: "below the bound", queued: []string{"I1A"}, arrival: "I2A", maxQueue: 2,
			left: []JobID{1, 2}},
		{name: "MaxQueue and DropStale displace two", queued: []string{"I1A", "I2B", "I3B"}, arrival: "I4B",
			maxQueue: 2, dropStale: true, crowded: 1, stale: 2, left: []JobID{3, 4}},
		{name: "a batch job at the bound is refused", queued: []string{"I1A"}, arrival: "B2",
			maxQueue: 1, verdict: Overloaded, left: []JobID{1}},
		{name: "a frame at the bound crowds out the oldest", queued: []string{"B1", "I2B", "I3A"}, arrival: "I4A",
			maxQueue: 3, crowded: 2, left: []JobID{1, 3, 4}},
		{name: "a dispatched frame stays", queued: []string{"I1A*"}, arrival: "I2A",
			maxQueue: 1, dropStale: true, left: []JobID{1, 2}},
		{name: "DropStale alone", queued: []string{"I1A", "B2", "I3B"}, arrival: "I4A",
			dropStale: true, stale: 1, left: []JobID{2, 3, 4}},
	} {
		for _, gated := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/gated=%v", tc.name, gated), func(t *testing.T) {
				var b Backlog
				gate := &fifoFair{stale: tc.dropStale}
				if gated {
					b.SetGate(gate)
				}
				for _, name := range tc.queued {
					j := admissionJob(name)
					if gated && int(j.Remaining) == len(j.Tasks) {
						gate.jobs = append(gate.jobs, j)
					} else {
						b.Push(j)
					}
				}
				arrival := admissionJob(tc.arrival)
				a := b.Admit(arrival, 0, tc.maxQueue, tc.dropStale)
				left := ids(append(slices.Clone(b.Jobs()), gate.jobs...))
				if a.Verdict != tc.verdict || jobID(a.Crowded) != tc.crowded || jobID(a.Stale) != tc.stale ||
					!slices.Equal(left, tc.left) {
					t.Fatalf("%v, crowded out %d, superseded %d, left %v; want %v, %d, %d, %v",
						a.Verdict, jobID(a.Crowded), jobID(a.Stale), left, tc.verdict, tc.crowded, tc.stale, tc.left)
				}
			})
		}
	}
}

// TestBacklogAdmissionZeroLimitsDoNotScan: with no gate and no limits Admit
// is Push. The backlog holds an entry any scan would dereference, and
// admission still only appends.
func TestBacklogAdmissionZeroLimitsDoNotScan(t *testing.T) {
	var b Backlog
	b.jobs = append(b.jobs, nil)
	j := admissionJob("I1A")
	if a := b.Admit(j, 0, 0, false); a != (Admission{}) || b.Len() != 2 || b.Jobs()[1] != j {
		t.Fatalf("Admit = %+v with %d queued, want a plain push", a, b.Len())
	}
	if allocs := testing.AllocsPerRun(100, func() {
		b.jobs = b.jobs[:1]
		b.Admit(j, 0, 0, false)
	}); allocs != 0 {
		t.Fatalf("Admit allocated %v times per arrival, want 0", allocs)
	}
}

// admissionJob builds TestBacklogAdmission's job from its name: two tasks,
// the first assigned when the name ends in "*".
func admissionJob(name string) *Job {
	j := &Job{Class: Interactive, Tasks: make([]Task, 2), Remaining: 2}
	if name[0] == 'B' {
		j.Class = Batch
	}
	fmt.Sscanf(name[1:], "%d", &j.ID)
	if i := strings.IndexAny(name, "ABC"); i > 0 {
		j.Action = ActionID(name[i] - 'A')
	}
	for i := range j.Tasks {
		j.Tasks[i] = Task{Job: j, Index: i}
	}
	if strings.HasSuffix(name, "*") {
		j.Tasks[0].State = TaskAssigned
		j.Remaining--
	}
	return j
}

func jobID(j *Job) JobID {
	if j == nil {
		return 0
	}
	return j.ID
}

// TestTaskRecordFitsTask: a task's record is its State, in the padding a
// bool once took, so a Task stays within 56 bytes. Every queued job holds
// one per chunk: a record kept beside them once cost full-scale Scenario 4
// OURS a tenth of its wall time.
func TestTaskRecordFitsTask(t *testing.T) {
	if size := unsafe.Sizeof(Task{}); size > 56 {
		t.Errorf("core.Task is %d bytes, want at most 56", size)
	}
}
