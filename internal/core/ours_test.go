package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"weak"

	"vizsched/internal/cache"
	"vizsched/internal/units"
	"vizsched/internal/volume"
)

func TestOursMetadata(t *testing.T) {
	s := NewLocalityScheduler(0)
	if s.Name() != "OURS" {
		t.Errorf("Name = %q", s.Name())
	}
	if s.Trigger() != Periodic {
		t.Error("OURS must be periodic")
	}
	if s.Cycle() != DefaultCycle {
		t.Errorf("Cycle = %v, want default", s.Cycle())
	}
	if NewLocalityScheduler(5*units.Millisecond).Cycle() != 5*units.Millisecond {
		t.Error("explicit cycle ignored")
	}
}

func TestOursSchedulesAllInteractiveTasks(t *testing.T) {
	s := NewLocalityScheduler(0)
	h := newHead(4)
	j1 := mkJob(1, Interactive, 1, 1, 4, 512*units.MB, 0)
	j2 := mkJob(2, Interactive, 2, 2, 4, 512*units.MB, 0)
	as := s.Schedule(0, []*Job{j1, j2}, h)
	if len(as) != 8 {
		t.Fatalf("assigned %d tasks, want all 8", len(as))
	}
	for _, j := range []*Job{j1, j2} {
		for i := range j.Tasks {
			if !j.Tasks[i].Assigned() {
				t.Errorf("task %v left unassigned", &j.Tasks[i])
			}
		}
	}
}

func TestOursSameChunkSameNodeWithinCycle(t *testing.T) {
	s := NewLocalityScheduler(0)
	h := newHead(4)
	// Three interactive jobs over the same dataset in one cycle: tasks for
	// chunk i must all land on the same node.
	jobs := []*Job{
		mkJob(1, Interactive, 1, 1, 4, 512*units.MB, 0),
		mkJob(2, Interactive, 2, 1, 4, 512*units.MB, 0),
		mkJob(3, Interactive, 3, 1, 4, 512*units.MB, 0),
	}
	as := s.Schedule(0, jobs, h)
	byChunk := make(map[volume.ChunkID]map[NodeID]bool)
	for _, a := range as {
		if byChunk[a.Task.Chunk] == nil {
			byChunk[a.Task.Chunk] = map[NodeID]bool{}
		}
		byChunk[a.Task.Chunk][a.Node] = true
	}
	for c, nodes := range byChunk {
		if len(nodes) != 1 {
			t.Errorf("chunk %v scattered over %d nodes", c, len(nodes))
		}
	}
}

func TestOursPrefersCachedNode(t *testing.T) {
	s := NewLocalityScheduler(0)
	h := newHead(4)
	j := mkJob(1, Interactive, 1, 1, 1, 512*units.MB, 0)
	// Chunk is cached on node 2 only; all nodes equally available.
	h.Caches[2].Insert(j.Tasks[0].Chunk, j.Tasks[0].Size)
	as := s.Schedule(0, []*Job{j}, h)
	if len(as) != 1 || as[0].Node != 2 {
		t.Fatalf("assigned to %v, want node 2", as)
	}
}

func TestOursAbandonsCachedNodeWhenOverloaded(t *testing.T) {
	s := NewLocalityScheduler(0)
	h := newHead(2)
	j := mkJob(1, Interactive, 1, 1, 1, 512*units.MB, 0)
	h.Caches[0].Insert(j.Tasks[0].Chunk, j.Tasks[0].Size)
	// Node 0 holds the cache but is busy for longer than a full reload
	// would take on idle node 1: load balance must win.
	h.Available[0] = units.Time(60 * units.Second)
	as := s.Schedule(0, []*Job{j}, h)
	if len(as) != 1 || as[0].Node != 1 {
		t.Fatalf("assigned to %v, want node 1", as)
	}
}

func TestOursDefersNonCachedBatchOnBusyInteractiveNodes(t *testing.T) {
	s := NewLocalityScheduler(0)
	h := newHead(2)
	// Both nodes just served interactive work: ε not yet satisfied.
	ij := mkJob(1, Interactive, 1, 1, 2, 512*units.MB, 0)
	now := units.Time(0)
	s.Schedule(now, []*Job{ij}, h)

	bj := mkJob(2, Batch, 2, 7, 2, 512*units.MB, 0)
	as := s.Schedule(now.Add(units.Millisecond), []*Job{bj}, h)
	if len(as) != 0 {
		t.Fatalf("non-cached batch scheduled %d tasks on interactive-hot nodes", len(as))
	}
	// Long after the interactive activity, ε is satisfied and batch flows.
	later := now.Add(30 * units.Second)
	h.Available[0], h.Available[1] = later, later
	as = s.Schedule(later, []*Job{bj}, h)
	if len(as) == 0 {
		t.Fatal("batch never scheduled after idle threshold passed")
	}
}

func TestOursCachedBatchFillsUntilLambda(t *testing.T) {
	cycle := 10 * units.Millisecond
	s := NewLocalityScheduler(cycle)
	h := newHead(1)
	bj := mkJob(1, Batch, 1, 1, 1, 512*units.MB, 0)
	// The batch chunk is cached: tasks cost ~8ms each, so exactly one fits
	// before λ = now+10ms at a time.
	h.Caches[0].Insert(bj.Tasks[0].Chunk, bj.Tasks[0].Size)
	many := []*Job{}
	for i := 0; i < 5; i++ {
		many = append(many, mkJob(JobID(i+1), Batch, 1, 1, 1, 512*units.MB, 0))
	}
	as := s.Schedule(0, many, h)
	if len(as) == 0 {
		t.Fatal("cached batch starved")
	}
	if len(as) == 5 {
		t.Fatal("batch overfilled past λ")
	}
	// The rest remain unassigned for the next cycle.
	unassigned := 0
	for _, j := range many {
		if !j.Tasks[0].Assigned() {
			unassigned++
		}
	}
	if unassigned != 5-len(as) {
		t.Errorf("unassigned = %d, want %d", unassigned, 5-len(as))
	}
}

func TestOursInteractivePriorityOverBatch(t *testing.T) {
	s := NewLocalityScheduler(0)
	h := newHead(2)
	// One interactive and one batch job for the same (cached) dataset: the
	// interactive tasks must all be assigned; batch fills leftovers.
	for i := 0; i < 2; i++ {
		h.Caches[0].Insert(volume.ChunkID{Dataset: 1, Index: i}, 512*units.MB)
	}
	ij := mkJob(1, Interactive, 1, 1, 2, 512*units.MB, 0)
	bj := mkJob(2, Batch, 2, 1, 2, 512*units.MB, 0)
	as := s.Schedule(0, []*Job{bj, ij}, h)
	interactiveAssigned := 0
	for _, a := range as {
		if a.Task.Job.Class == Interactive {
			interactiveAssigned++
		}
	}
	if interactiveAssigned != 2 {
		t.Errorf("interactive tasks assigned = %d, want 2", interactiveAssigned)
	}
}

func TestOursSkipsFailedNodes(t *testing.T) {
	s := NewLocalityScheduler(0)
	h := newHead(3)
	h.MarkFailed(1)
	j := mkJob(1, Interactive, 1, 1, 6, 256*units.MB, 0)
	as := s.Schedule(0, []*Job{j}, h)
	if len(as) != 6 {
		t.Fatalf("assigned %d, want 6", len(as))
	}
	for _, a := range as {
		if a.Node == 1 {
			t.Error("task placed on failed node")
		}
	}
}

func TestOursAllNodesFailedLeavesQueue(t *testing.T) {
	s := NewLocalityScheduler(0)
	h := newHead(2)
	h.MarkFailed(0)
	h.MarkFailed(1)
	j := mkJob(1, Interactive, 1, 1, 2, 256*units.MB, 0)
	as := s.Schedule(0, []*Job{j}, h)
	if len(as) != 0 {
		t.Errorf("assigned %d tasks with no nodes alive", len(as))
	}
	if j.Tasks[0].Assigned() || j.Tasks[1].Assigned() {
		t.Error("tasks marked assigned with no nodes alive")
	}
}

func TestOursDeterministic(t *testing.T) {
	run := func() []Assignment {
		s := NewLocalityScheduler(0)
		h := newHead(4)
		jobs := []*Job{
			mkJob(1, Interactive, 1, 3, 4, 512*units.MB, 0),
			mkJob(2, Interactive, 2, 1, 4, 512*units.MB, 0),
			mkJob(3, Batch, 3, 2, 4, 512*units.MB, 0),
			mkJob(4, Interactive, 4, 1, 4, 512*units.MB, 0),
		}
		return s.Schedule(0, jobs, h)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Node != b[i].Node || a[i].Task.Chunk != b[i].Task.Chunk {
			t.Fatalf("assignment %d differs across runs", i)
		}
	}
}

func TestOursBalancesAcrossNodes(t *testing.T) {
	s := NewLocalityScheduler(0)
	h := newHead(8)
	// 6 datasets × 4 chunks = 24 chunk groups; they must spread over all
	// 8 nodes, not pile onto one.
	var jobs []*Job
	for d := 0; d < 6; d++ {
		jobs = append(jobs, mkJob(JobID(d+1), Interactive, ActionID(d+1), volume.DatasetID(d+1), 4, 512*units.MB, 0))
	}
	as := s.Schedule(0, jobs, h)
	counts := map[NodeID]int{}
	for _, a := range as {
		counts[a.Node]++
	}
	if len(counts) != 8 {
		t.Errorf("used %d nodes, want 8", len(counts))
	}
	for n, c := range counts {
		if c > 4 {
			t.Errorf("node %d overloaded with %d tasks", n, c)
		}
	}
}

// oursLike is what the differential test drives: LocalityScheduler and the
// reference it replaced.
type oursLike interface {
	Schedule(now units.Time, queue []*Job, head *HeadState) []Assignment
	PlannedPrefetches() []PrefetchDirective
}

// diffConfig is one randomly drawn configuration, applied to both sides.
type diffConfig struct {
	nodes, replicas int
	noGuard         bool
	coShare         float64
	prefetch, src   bool
	// shapes adds the job shapes H_I and H_B's per-dataset rows must get
	// right (shapedJobs).
	shapes bool
	// window, when positive, shows each cycle only the first window batch
	// jobs of the queue (and every interactive one), the simulator's
	// BatchWindow.
	window int
}

// stubPlanner asks, every cycle, for one warm on the first alive node that
// is free before λ — enough to run LandWarm and its evictions through
// the tables between cycles.
type stubPlanner struct{ calls int }

func (p *stubPlanner) Plan(now, lambda units.Time, head *HeadState) []PrefetchDirective {
	p.calls++
	for k := 0; k < head.Nodes(); k++ {
		if head.Alive(NodeID(k)) && head.Available[k].Before(lambda) {
			c := volume.ChunkID{Dataset: volume.DatasetID(p.calls%5 + 1), Index: p.calls % 6}
			return []PrefetchDirective{{Node: NodeID(k), Chunk: c, Size: diffChunkSize(c.Dataset)}}
		}
	}
	return nil
}

func diffChunkSize(ds volume.DatasetID) units.Bytes { return units.Bytes(int(ds)%3+1) * 96 * units.MB }

// jobOver builds a job whose tasks need the given chunks, in that order.
func jobOver(id JobID, class Class, action ActionID, now units.Time, chunks ...volume.ChunkID) *Job {
	j := &Job{ID: id, Class: class, Action: action, Dataset: chunks[0].Dataset, Issued: now}
	j.Tasks = make([]Task, len(chunks))
	for i, c := range chunks {
		j.Tasks[i] = Task{Job: j, Index: i, Chunk: c, Size: diffChunkSize(c.Dataset)}
	}
	j.Remaining = int32(len(chunks))
	return j
}

// shapedJobs draws the arrivals of one cycle that the plain generator never
// makes: a job whose tasks interleave two datasets; a job whose chunk
// indices are out of order and have gaps; an interactive and a batch job
// over the same chunks; and, in two cycles of every five, a job over
// dataset 9, which is otherwise absent, so its rows empty and fill again.
func shapedJobs(rng *rand.Rand, next *JobID, now units.Time, cycle int) []*Job {
	job := func(class Class, chunks ...volume.ChunkID) *Job {
		j := jobOver(*next, class, ActionID(rng.Intn(4)+1), now, chunks...)
		*next++
		return j
	}
	class := func() Class { return Class(rng.Intn(2)) }
	ds := func() volume.DatasetID { return volume.DatasetID(rng.Intn(5) + 1) }
	var jobs []*Job
	switch rng.Intn(4) {
	case 0:
		a, b := ds(), ds()
		var cs []volume.ChunkID
		for i := rng.Intn(4) + 1; i >= 0; i-- {
			cs = append(cs, volume.ChunkID{Dataset: a, Index: i}, volume.ChunkID{Dataset: b, Index: i})
		}
		jobs = append(jobs, job(class(), cs...))
	case 1:
		d := ds()
		var cs []volume.ChunkID
		for _, i := range rng.Perm(24)[:rng.Intn(5)+1] {
			cs = append(cs, volume.ChunkID{Dataset: d, Index: i})
		}
		jobs = append(jobs, job(class(), cs...))
	case 2:
		d := ds()
		var cs []volume.ChunkID
		for i := rng.Intn(4); i >= 0; i-- {
			cs = append(cs, volume.ChunkID{Dataset: d, Index: i * 2})
		}
		jobs = append(jobs, job(Interactive, cs...), job(Batch, cs...))
	}
	if cycle%5 < 2 {
		jobs = append(jobs, job(class(), volume.ChunkID{Dataset: 9, Index: rng.Intn(3)}, volume.ChunkID{Dataset: 9, Index: 3}))
	}
	return jobs
}

// placed is one assignment in comparable form.
type placed struct {
	job  JobID
	task int
	node NodeID
	co   bool
}

// transcript is everything one side of the differential run decided.
type transcript struct {
	cycles   [][]placed
	dump     *TableDump
	srcCalls int
}

// driveOurs runs sched for many cycles over a seeded history of arrivals,
// completions with evictions, warms, and node health changes, and of the
// events a carried H_B must survive: a requeue mid-window, a finished job
// back at the queue's tail, a batch job leaving with tasks pending (the live
// head's fail), a fresh head (a standby's tables) and, with cfg.window, a
// window that slides along a longer queue. Every random draw depends only on
// the seed and on table state, so two schedulers that decide alike see
// identical histories. When sched is a LocalityScheduler, the H_B it carries
// out of every cycle is held to a fresh grouping (checkCarried).
func driveOurs(t *testing.T, seed int64, cfg diffConfig, sched oursLike, cycles int) transcript {
	rng := rand.New(rand.NewSource(seed))
	head := NewHeadState(cfg.nodes, units.GB, System1CostModel())
	head.SetReplication(cfg.replicas)
	var tr transcript
	source := func(c volume.ChunkID) (units.Duration, bool) {
		tr.srcCalls++
		return units.Duration(c.Index+1) * 300 * units.Millisecond, c.Index%2 == 0
	}
	if cfg.src {
		head.SetEstimateSource(source)
	}
	// requeue hands one of j's assigned tasks back, as a crash or a drain
	// does: the job is queued again if it had left.
	var queue, done []*Job
	requeue := func(j *Job) {
		var assigned []int
		for i := range j.Tasks {
			if j.Tasks[i].Assigned() {
				assigned = append(assigned, i)
			}
		}
		if len(assigned) == 0 {
			return
		}
		task := &j.Tasks[assigned[rng.Intn(len(assigned))]]
		task.State, task.PredictedExec = TaskQueued, 0
		if j.Remaining == 0 {
			queue = append(queue, j)
		}
		j.Remaining++
	}
	now := units.Time(0)
	for next := JobID(1); len(tr.cycles) < cycles; {
		for i := rng.Intn(5); i > 0; i-- {
			class := Interactive
			if rng.Intn(2) == 0 {
				class = Batch
			}
			ds := volume.DatasetID(rng.Intn(5) + 1)
			j := mkJob(next, class, ActionID(rng.Intn(4)+1), ds, rng.Intn(6)+1, diffChunkSize(ds), now)
			next++
			if rng.Intn(4) == 0 && len(j.Tasks) > 1 { // arrives partially assigned
				j.Tasks[rng.Intn(len(j.Tasks))].State = TaskAssigned
				j.Remaining--
			}
			queue = append(queue, j)
		}
		if cfg.shapes {
			queue = append(queue, shapedJobs(rng, &next, now, len(tr.cycles))...)
		}
		switch k := NodeID(rng.Intn(cfg.nodes)); rng.Intn(10) {
		case 0:
			head.MarkFailed(k)
		case 1:
			head.MarkSuspect(k)
		case 2:
			head.MarkDraining(k)
		case 3, 4:
			// Bring the first out-of-service node back, whichever way fits.
			for n := NodeID(0); int(n) < cfg.nodes; n++ {
				switch head.Health(n) {
				case HealthUp:
					continue
				case HealthSuspect:
					head.MarkUp(n)
				case HealthDraining:
					head.DemoteHomes(n)
					head.CompleteDrain(n)
				case HealthDown:
					head.MarkRepaired(n, now)
				}
				break
			}
		}
		switch rng.Intn(12) {
		case 0, 1:
			if len(queue) > 0 {
				requeue(queue[rng.Intn(len(queue))])
			}
		case 2:
			if len(done) > 0 {
				i := rng.Intn(len(done))
				j := done[i]
				done = slices.Delete(done, i, i+1)
				requeue(j)
			}
		case 3:
			if i := rng.Intn(len(queue) + 1); i < len(queue) && queue[i].Class == Batch {
				queue = slices.Delete(queue, i, i+1)
			}
		case 4:
			if rng.Intn(4) == 0 {
				head = LoadTables(head.Dump(), head.Model)
				if cfg.src {
					head.SetEstimateSource(source)
				}
			}
		}
		present := queue
		if cfg.window > 0 {
			present = nil
			batch := 0
			for _, j := range queue {
				if j.Class == Interactive || batch < cfg.window {
					present = append(present, j)
				}
				if j.Class == Batch {
					batch++
				}
			}
		}

		var got []placed
		for _, a := range sched.Schedule(now, present, head) {
			got = append(got, placed{a.Task.Job.ID, a.Task.Index, a.Node, a.CoScheduled})
			a.Task.Job.Remaining--
			if rng.Intn(2) == 0 {
				res := TaskResult{
					Task: a.Task, Node: a.Node, Hit: rng.Intn(2) == 0, Predicted: a.Task.PredictedExec,
					Exec: a.Task.PredictedExec + units.Duration(rng.Intn(40)-10)*units.Millisecond,
				}
				if r := head.Caches[a.Node].Resident(); rng.Intn(3) == 0 {
					if ev := r[rng.Intn(len(r))]; ev != a.Task.Chunk {
						res.Evicted = []volume.ChunkID{ev}
					}
				}
				head.Correct(res, now)
			}
			if a.CoScheduled && rng.Intn(2) == 0 {
				head.CoDone(a.Node)
			}
		}
		tr.cycles = append(tr.cycles, got)
		if s, ok := sched.(*LocalityScheduler); ok {
			if err := checkCarried(s, present, head); err != nil {
				t.Fatalf("seed %d %+v cycle %d: %v", seed, cfg, len(tr.cycles), err)
			}
		}
		for _, d := range sched.PlannedPrefetches() {
			head.LandWarm(d.Chunk, d.Node, d.Size, nil)
		}
		if err := head.Validate(); err != nil {
			t.Fatalf("seed %d cycle %d: %v", seed, len(tr.cycles), err)
		}

		live := queue[:0]
		for _, j := range queue {
			if j.Remaining > 0 {
				live = append(live, j)
			} else {
				done = append(done, j)
			}
		}
		clear(queue[len(live):])
		queue = live
		now = now.Add([]units.Duration{units.Millisecond, 10 * units.Millisecond, 200 * units.Millisecond, 5 * units.Second}[rng.Intn(4)])
	}
	tr.dump = head.Dump()
	return tr
}

// checkCarried holds the H_B a cycle leaves behind to a fresh grouping of
// the jobs the cycle was shown: the same groups in chunk order, each with
// the same pending tasks in window order, its chunk's residency set on this
// head (the same slice, not a copy) and its first task's size, every group
// found through the map, and the presented batch jobs carried in order.
func checkCarried(s *LocalityScheduler, present []*Job, head *HeadState) error {
	var batch []*Job
	var want []*chunkGroup
	byChunk := make(map[volume.ChunkID]*chunkGroup)
	for _, j := range present {
		if j.Class != Batch {
			continue
		}
		batch = append(batch, j)
		for i := range j.Tasks {
			t := &j.Tasks[i]
			if t.Assigned() {
				continue
			}
			g := byChunk[t.Chunk]
			if g == nil {
				on, _ := head.where.Get(t.Chunk)
				g = &chunkGroup{chunk: t.Chunk, size: t.Size, on: on}
				byChunk[t.Chunk] = g
				want = append(want, g)
			}
			g.tasks = append(g.tasks, t)
		}
	}
	slices.SortFunc(want, func(a, b *chunkGroup) int { return volume.CompareChunks(a.chunk, b.chunk) })
	if !slices.Equal(s.carried, batch) {
		return fmt.Errorf("H_B carries %d jobs, the cycle was shown %d batch jobs", len(s.carried), len(batch))
	}
	got := s.groups[Batch]
	if len(got) != len(want) || s.byChunk[Batch].Len() != len(want) {
		return fmt.Errorf("H_B holds %d groups (%d in its map), a fresh grouping %d", len(got), s.byChunk[Batch].Len(), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.chunk != w.chunk || g.size != w.size || !slices.Equal(g.pending(), w.tasks) {
			return fmt.Errorf("H_B group %d is %v (%v) %v, a fresh grouping's %v (%v) %v", i, g.chunk, g.size, g.pending(), w.chunk, w.size, w.tasks)
		}
		if len(g.on) == 0 || len(w.on) == 0 || &g.on[0] != &w.on[0] {
			return fmt.Errorf("H_B group %v does not hold the head's residency set", g.chunk)
		}
		if m, _ := s.byChunk[Batch].Get(g.chunk); m != g {
			return fmt.Errorf("H_B's map does not find group %v", g.chunk)
		}
	}
	return nil
}

// TestReferenceScheduleDifferential holds Schedule to the scheduler it
// replaced: over random queues and table histories the two must return the
// same assignments cycle for cycle, leave the same tables behind, and ask
// the cross-shard estimate source the same number of times (the sharded
// sweep's pinned CSV counts those calls).
func TestReferenceScheduleDifferential(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		differential(t, seed, false)
	}
}

// TestReferenceScheduleDifferentialShapes is the differential over the job
// shapes that index H_I and H_B by dataset and chunk index: two datasets
// interleaved in one job, indices out of order and with gaps, a dataset
// that leaves the queue and returns, the same chunk in both classes.
func TestReferenceScheduleDifferentialShapes(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		differential(t, seed, true)
	}
}

// TestReferenceScheduleDifferentialBestNode holds bestNode's start tree to
// the reference scan after every placement of a cycle: word and power-of-two
// node counts (so padding leaves), many nodes tied at Available ≤ now,
// suspect, draining and down nodes, a learned hit estimate above the modelled
// miss (the Estimate floor binds), and an estimate source (the per-node
// path).
func TestReferenceScheduleDifferentialBestNode(t *testing.T) {
	const size = 96 * units.MB
	for _, p := range []int{1, 2, 63, 64, 65, 130} {
		for seed := int64(1); seed <= 12; seed++ {
			rng := rand.New(rand.NewSource(seed*1009 + int64(p)))
			head := NewHeadState(p, units.GB, System1CostModel())
			now := units.Time(10 * units.Second)
			newJob := func(id int, ds volume.DatasetID) *Job {
				return mkJob(JobID(id), Interactive, ActionID(id), ds, 4, size, now)
			}
			if seed%3 == 0 {
				j := newJob(0, 1)
				head.Correct(TaskResult{Task: &j.Tasks[0], Node: 0, Hit: true, Exec: 20 * units.Second, Predicted: 20 * units.Second}, now)
				if hit, miss := head.HitEstimate(size, 4), head.Estimate(volume.ChunkID{Dataset: 2}, size, 4); miss != hit+units.Microsecond {
					t.Fatalf("p=%d seed %d: learned hit %v, miss %v: the floor does not bind", p, seed, hit, miss)
				}
			}
			if seed%4 == 0 {
				head.SetEstimateSource(func(c volume.ChunkID) (units.Duration, bool) {
					return units.Duration(c.Index+1) * 300 * units.Millisecond, c.Index%2 == 0
				})
			}
			for k := 0; k < p; k++ {
				switch rng.Intn(3) {
				case 0: // drained long ago: ties at now
					head.Available[k] = now.Add(-units.Duration(rng.Intn(3)) * units.Second)
				default: // busy, on a coarse grid so starts tie too
					head.Available[k] = now.Add(units.Duration(rng.Intn(8)) * 50 * units.Millisecond)
				}
				for i := rng.Intn(3); i > 0; i-- {
					head.Caches[k].Insert(volume.ChunkID{Dataset: volume.DatasetID(rng.Intn(6) + 1), Index: rng.Intn(4)}, size)
				}
				switch rng.Intn(8) {
				case 0:
					head.MarkSuspect(NodeID(k))
				case 1:
					head.MarkDraining(NodeID(k))
				case 2:
					head.MarkFailed(NodeID(k))
				}
			}

			s := NewLocalityScheduler(0)
			s.starts.build(now, head)
			ref := &referenceScheduler{}
			for id := 1; id <= 60; id++ {
				ds := volume.DatasetID(rng.Intn(6) + 1)
				ci := rng.Intn(4)
				var tasks []*Task
				for n := rng.Intn(3) + 1; n > 0; n-- {
					tasks = append(tasks, &newJob(id, ds).Tasks[ci])
				}
				g := s.newGroup(Interactive, tasks[0].Chunk, size, head.residency(tasks[0].Chunk))
				g.tasks = append(g.tasks, tasks...)
				got, ok := s.bestNode(now, g, head)
				want, wantOK := ref.bestNode(now, &refGroup{chunk: g.chunk, size: size, tasks: tasks}, head)
				if got != want || ok != wantOK {
					t.Fatalf("p=%d seed %d placement %d (%v): start tree chose %d/%v, the scan %d/%v", p, seed, id, g.chunk, got, ok, want, wantOK)
				}
				if !ok {
					continue
				}
				for _, task := range tasks {
					head.CommitAssign(task, got, now)
				}
				s.starts.set(got, max(head.Available[got], now))
			}
		}
	}
}

// differential drives Schedule and the reference scheduler through one
// seeded history and requires identical decisions, tables and estimate
// source calls.
func differential(t *testing.T, seed int64, shapes bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed * 7919))
	cfg := diffConfig{
		nodes:    []int{1, 2, 5, 9, 64, 70}[rng.Intn(6)], // 64: one full word; 70: wider than one word
		replicas: rng.Intn(3) + 1,
		noGuard:  rng.Intn(3) == 0,
		prefetch: rng.Intn(2) == 0,
		src:      rng.Intn(2) == 0,
		shapes:   shapes,
	}
	if rng.Intn(2) == 0 {
		cfg.coShare = 0.25
	}
	if rng.Intn(3) == 0 {
		cfg.window = rng.Intn(6) + 2
	}
	fast := NewLocalityScheduler(0)
	fast.Replicas, fast.DisableIdleGuard, fast.coShare = cfg.replicas, cfg.noGuard, cfg.coShare
	ref := &referenceScheduler{cycle: DefaultCycle, Replicas: cfg.replicas, DisableIdleGuard: cfg.noGuard, coShare: cfg.coShare}
	if cfg.prefetch {
		fast.SetPrefetchPlanner(&stubPlanner{})
		ref.prefetch = &stubPlanner{}
	}
	want := driveOurs(t, seed, cfg, ref, 150)
	got := driveOurs(t, seed, cfg, fast, 150)
	for i := range want.cycles {
		if !reflect.DeepEqual(got.cycles[i], want.cycles[i]) {
			t.Fatalf("seed %d %+v: cycle %d assigned\n %v\nreference\n %v", seed, cfg, i, got.cycles[i], want.cycles[i])
		}
	}
	if !reflect.DeepEqual(got.dump, want.dump) {
		t.Fatalf("seed %d %+v: tables differ after identical assignments", seed, cfg)
	}
	if got.srcCalls != want.srcCalls {
		t.Fatalf("seed %d %+v: estimate source asked %d times, reference %d", seed, cfg, got.srcCalls, want.srcCalls)
	}
}

// TestInvariantResidencyIndexRandomOps checks that the residency index and
// the up mask stay what a scan of Caches and health says, under every
// operation that touches either — including the outside writers' direct
// Caches[k].Insert/Remove — with Validate after each.
func TestInvariantResidencyIndexRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := []int{3, 64, 67}[seed%3]
		h := NewHeadState(nodes, 512*units.MB, System1CostModel())
		h.SetReplication(2)
		var pool []*Task
		for ds := 1; ds <= 6; ds++ {
			j := mkJob(JobID(ds), Class(ds%2), ActionID(ds), volume.DatasetID(ds), 6, 128*units.MB, 0)
			for i := range j.Tasks {
				pool = append(pool, &j.Tasks[i])
			}
		}
		now := units.Time(0)
		for op := 0; op < 4000; op++ {
			k := NodeID(rng.Intn(nodes))
			task := pool[rng.Intn(len(pool))]
			now = now.Add(units.Millisecond)
			switch rng.Intn(14) {
			case 0, 1, 2:
				h.CommitAssign(task, k, now)
			case 3:
				h.CommitCoAssign(task, k, now)
			case 4, 5:
				res := TaskResult{Task: task, Node: k, Hit: rng.Intn(2) == 0, Exec: units.Second, Predicted: units.Second}
				for _, ev := range h.Caches[k].Resident() {
					if ev != task.Chunk && rng.Intn(2) == 0 {
						res.Evicted = append(res.Evicted, ev)
					}
				}
				h.Correct(res, now)
			case 6:
				h.LandWarm(task.Chunk, k, task.Size, nil)
			case 7:
				h.MarkFailed(k)
			case 8:
				h.MarkRepaired(k, now)
			case 9:
				if !h.MarkDraining(k) && h.Draining(k) {
					h.DemoteHomes(k)
					h.CompleteDrain(k)
				}
			case 10:
				if rng.Intn(2) == 0 {
					h.MarkSuspect(k)
				} else {
					h.MarkUp(k)
				}
			case 11:
				var announced []cache.Entry
				for _, i := range rng.Perm(len(pool))[:rng.Intn(4)] {
					announced = append(announced, cache.Entry{ID: pool[i].Chunk, Size: pool[i].Size, Pins: 1})
				}
				h.ResyncCache(k, announced)
			case 12:
				h = LoadTables(h.Dump(), h.Model)
			case 13:
				if rng.Intn(2) == 0 {
					h.Caches[k].Remove(task.Chunk)
				} else {
					h.Caches[k].Insert(task.Chunk, task.Size)
				}
			}
			if err := h.Validate(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
			if got, want := h.ReplicaCount(task.Chunk), scanReplicaCount(h, task.Chunk); got != want || len(h.CachedOn(task.Chunk)) != want {
				t.Fatalf("seed %d op %d: ReplicaCount(%v)=%d CachedOn=%v, a scan says %d", seed, op, task.Chunk, got, h.CachedOn(task.Chunk), want)
			}
		}
	}
}

// TestInvariantScheduleReleasesFinishedJobs: once a later cycle has run,
// nothing the scheduler keeps — H_I, H_B, the spare groups, the passes'
// scratch, the last output — reaches a job whose tasks were all assigned,
// so a carried H_B cannot pin finished jobs.
func TestInvariantScheduleReleasesFinishedJobs(t *testing.T) {
	for _, class := range []Class{Interactive, Batch} {
		s := NewLocalityScheduler(0)
		head := NewHeadState(8, 8*units.GB, System1CostModel())
		done := mkJob(1, class, 1, 1, 4, 96*units.MB, 0)
		ref := weak.Make(done)
		if n := len(s.Schedule(0, []*Job{done}, head)); n != len(done.Tasks) {
			t.Fatalf("%v: the first cycle assigned %d of %d tasks", class, n, len(done.Tasks))
		}
		done.Remaining = 0
		done = nil
		s.Schedule(units.Time(units.Second), []*Job{mkJob(2, class, 2, 2, 1, 96*units.MB, 0)}, head)
		runtime.GC()
		if ref.Value() != nil {
			t.Errorf("%v: a finished job is still reachable after a later cycle", class)
		}
		runtime.KeepAlive(s)
		runtime.KeepAlive(head)
	}
}

// TestInvariantCarriedWindowReclaim: the live head can reclaim a requeued
// task H_B holds (its first run reported after all) while a requeue in the
// same interval puts back another, which balances carries' Remaining sum.
// The held task must not be assigned a second time, and the requeued one
// must still be placed.
func TestInvariantCarriedWindowReclaim(t *testing.T) {
	s := NewLocalityScheduler(0)
	head := NewHeadState(2, 8*units.GB, System1CostModel())
	j := mkJob(1, Batch, 1, 1, 2, 96*units.MB, 0)
	j.Tasks[0].State, j.Remaining = TaskAssigned, 1
	for k := range head.Available {
		head.Available[k] = units.Time((3600 * units.Second)) // busy: the cycle places nothing
	}
	if n := len(s.Schedule(0, []*Job{j}, head)); n != 0 {
		t.Fatalf("a busy cycle assigned %d tasks", n)
	}
	j.Tasks[1].State = TaskAssigned // reclaimed: H_B still holds it
	j.Tasks[0].State = TaskQueued
	now := units.Time(2 * (3600 * units.Second))
	placed := false
	for cycle := 0; cycle < 2 && !placed; cycle++ {
		for _, a := range s.Schedule(now, []*Job{j}, head) {
			if a.Task != &j.Tasks[0] {
				t.Fatalf("cycle %d assigned %v, which was already assigned", cycle, a.Task)
			}
			placed = true
			j.Remaining--
		}
		now = now.Add((3600 * units.Second))
	}
	if !placed {
		t.Fatal("the requeued task was not placed within two cycles")
	}
}

// TestCarriedWindowSurvivesJobReuse: a plane may reset a finished job's
// struct and tasks and issue them again as a new job before the next cycle
// (the simulator waits one cycle, but nothing in H_B relies on it). The
// pointer H_B carried then comes back as another job — batch or
// interactive, at the back of the queue or where the finished job stood.
// Reuse may cost a rebuild but must never carry a wrong H_B: after every
// cycle it equals a fresh grouping of the presented jobs.
func TestCarriedWindowSurvivesJobReuse(t *testing.T) {
	for _, class := range []Class{Batch, Interactive} {
		rng := rand.New(rand.NewSource(int64(class) + 11))
		s := NewLocalityScheduler(0)
		head := NewHeadState(4, 8*units.GB, System1CostModel())
		var queue []*Job
		next, reused := JobID(1), 0
		now := units.Time(0)
		for cycle := 0; cycle < 300; cycle++ {
			if rng.Intn(3) == 0 {
				ds := volume.DatasetID(rng.Intn(4) + 1)
				queue = append(queue, mkJob(next, Batch, ActionID(next), ds, rng.Intn(3)+1, diffChunkSize(ds), now))
				next++
			}
			for _, a := range s.Schedule(now, queue, head) {
				a.Task.Job.Remaining--
			}
			if err := checkCarried(s, queue, head); err != nil {
				t.Fatalf("%v reuse, cycle %d: %v", class, cycle, err)
			}
			live := queue[:0]
			var finished []*Job
			for _, j := range queue {
				if j.Remaining > 0 {
					live = append(live, j)
				} else {
					finished = append(finished, j)
				}
			}
			clear(queue[len(live):])
			queue = live
			for _, j := range finished {
				if j.Class != Batch || rng.Intn(4) == 0 {
					continue
				}
				tasks := j.Tasks
				*j = Job{ID: next, Class: class, Action: ActionID(next), Dataset: j.Dataset, Issued: now, Tasks: tasks, Remaining: int32(len(tasks))}
				for i := range tasks {
					tasks[i] = Task{Job: j, Index: i, Chunk: tasks[i].Chunk, Size: tasks[i].Size}
				}
				next++
				reused++
				queue = append(queue, j)
			}
			now = now.Add([]units.Duration{10 * units.Millisecond, 500 * units.Millisecond, 5 * units.Second}[rng.Intn(3)])
		}
		if reused < 20 {
			t.Fatalf("%v reuse: only %d jobs reused", class, reused)
		}
	}
}

// TestScheduleSteadyStateAllocs: once a cycle has grown the scratch — H_I
// and H_B tables, spare groups, per-group task slices, output — and every
// chunk has a home, scheduling the same 64-node, 256-job queue again, every
// task pending (Remaining restored with it, so H_B is rebuilt), allocates
// nothing.
func TestScheduleSteadyStateAllocs(t *testing.T) {
	s := NewLocalityScheduler(0)
	head := NewHeadState(64, 8*units.GB, System2CostModel())
	queue := make([]*Job, 256)
	for j := range queue {
		class := Interactive
		if j%8 == 7 {
			class = Batch
		}
		queue[j] = mkJob(JobID(j+1), class, ActionID(j+1), volume.DatasetID(j%32+1), 16, 512*units.MB, 0)
	}
	now := units.Time(0)
	var assigned int
	cycle := func() {
		for _, j := range queue {
			for i := range j.Tasks {
				j.Tasks[i].State = TaskQueued
			}
			j.Remaining = int32(len(j.Tasks))
		}
		now = now.Add(3600 * units.Second) // every node has long drained
		out := s.Schedule(now, queue, head)
		for _, a := range out {
			a.Task.Job.Remaining--
		}
		assigned = len(out)
	}
	cycle()
	if allocs := testing.AllocsPerRun(5, cycle); allocs != 0 {
		t.Errorf("steady-state Schedule allocates %v times a cycle, want 0", allocs)
	}
	if want := 224 * 16; assigned < want {
		t.Errorf("steady-state cycle assigned %d tasks, want at least the %d interactive ones", assigned, want)
	}
}

// TestScheduleSteadyStateAllocsBatch is the batch-heavy twin, the shape of
// the extension sweeps' queue: a full 256-job batch window over 4 datasets
// whose jobs are mostly placed already, so a cycle that rebuilds H_B walks
// many assigned tasks, groups a few pending ones per chunk and fills nodes
// until λ.
func TestScheduleSteadyStateAllocsBatch(t *testing.T) {
	s := NewLocalityScheduler(0)
	head := NewHeadState(64, 8*units.GB, System2CostModel())
	queue := make([]*Job, DefaultBatchWindow)
	for j := range queue {
		queue[j] = mkJob(JobID(j+1), Batch, ActionID(j+1), volume.DatasetID(j%4+1), 16, 512*units.MB, 0)
	}
	now := units.Time(0)
	var assigned int
	cycle := func() {
		for j, job := range queue {
			job.Remaining = 0
			for i := range job.Tasks {
				job.Tasks[i].State = TaskQueued
				if (i+j)%8 != 0 {
					job.Tasks[i].State = TaskAssigned
				} else {
					job.Remaining++
				}
			}
		}
		now = now.Add(3600 * units.Second)
		out := s.Schedule(now, queue, head)
		for _, a := range out {
			a.Task.Job.Remaining--
		}
		assigned = len(out)
	}
	for i := 0; i < 4; i++ { // every chunk finds a home
		cycle()
	}
	if allocs := testing.AllocsPerRun(5, cycle); allocs != 0 {
		t.Errorf("steady-state batch Schedule allocates %v times a cycle, want 0", allocs)
	}
	if assigned < head.Nodes() {
		t.Errorf("steady-state batch cycle assigned %d tasks, want at least one per node (%d)", assigned, head.Nodes())
	}
}

// ---------------------------------------------------------------------------
// The reference scheduler: Algorithm 1 exactly as it stood before the
// residency index (DESIGN.md §5.17) — two grouping walks, a PredictExec per
// node in bestNode, a scan of every node's cache for each Cache[c] read. It
// is kept verbatim, reading the Cache table only through Caches[k].Contains,
// so TestReferenceScheduleDifferential holds the fast path to it decision
// for decision.

// scanReplicaCount is the old HeadState.ReplicaCount.
func scanReplicaCount(h *HeadState, c volume.ChunkID) int {
	n := 0
	for k := range h.Caches {
		if h.health[k] == HealthUp && h.Caches[k].Contains(c) {
			n++
		}
	}
	return n
}

// scanSecondaryFor is the old HeadState.SecondaryFor.
func scanSecondaryFor(h *HeadState, c volume.ChunkID) (NodeID, bool) {
	if h.replicaK <= 1 {
		return -1, false
	}
	hs, _ := h.homes.Get(c)
	for _, n := range hs {
		if h.health[n] == HealthUp && !h.Caches[n].Contains(c) {
			return n, true
		}
	}
	if len(hs) >= h.replicaK {
		return -1, false
	}
	best := NodeID(-1)
	for k := range h.pressure {
		n := NodeID(k)
		if h.health[n] != HealthUp || h.Caches[n].Contains(c) || slices.Contains(hs, n) {
			continue
		}
		if best < 0 || h.pressure[n] < h.pressure[best] {
			best = n
		}
	}
	return best, best >= 0
}

func (s *referenceScheduler) PlannedPrefetches() []PrefetchDirective { return s.prefetches }

type referenceScheduler struct {
	cycle units.Duration
	// DisableIdleGuard drops the ε idle-time condition on non-cached batch
	// placement (ablation: batch loads may then interrupt interactive
	// streams, the failure mode the guard exists to prevent).
	DisableIdleGuard bool
	// Replicas is the replication policy layer's target degree k (§5.6):
	// when ≥ 2, a bounded fraction of batch placements for under-replicated
	// chunks is diverted to the chunk's secondary node, so hot chunks become
	// k-resident out of real work instead of synthetic copies. 0/1 keeps the
	// paper's single-home behaviour exactly.
	Replicas int
	// SpreadEvery bounds the diverted fraction: one in every SpreadEvery
	// eligible batch placement opportunities goes to the secondary instead
	// of the primary. Non-positive selects DefaultSpreadEvery.
	SpreadEvery int
	// spreadTick counts eligible spread opportunities across cycles; purely
	// deterministic, so identical runs divert identical tasks.
	spreadTick int

	// prefetch, when set, plans background chunk warming (§5.8) after every
	// demand pass has committed — prefetch work ranks strictly below cached
	// batch and ε-eligible batch work by running last over the idle windows
	// they left. nil (the default) changes nothing.
	prefetch   PrefetchPlanner
	prefetches []PrefetchDirective

	// coShare, when positive, enables the fractional co-scheduling pass
	// (§5.13): each node the demand passes leave idle hosts one batch guest
	// at this share, preempted the instant demand work starts there. Zero
	// (the default) emits no co-scheduled assignments.
	coShare float64

	// Per-cycle scratch, reused across Schedule calls.
	byChunk                 map[volume.ChunkID]*refGroup
	groupSlab               []*refGroup
	usedGroups              int
	hi, hb                  []*refGroup
	cached, nonCached, rest []*refGroup
	out                     []Assignment
}

// spreadEvery returns the effective diversion stride.
func (s *referenceScheduler) spreadEvery() int {
	if s.SpreadEvery > 0 {
		return s.SpreadEvery
	}
	return DefaultSpreadEvery
}

// refGroup is one entry of the H_I / H_B hash tables: the unassigned
// tasks within this cycle that need the same chunk, plus the sort keys
// Schedule precomputes so its orderings never call into the head tables
// from inside a comparator.
type refGroup struct {
	chunk volume.ChunkID
	size  units.Bytes
	tasks []*Task
	// est caches Estimate[c] for the non-cached interactive ordering;
	// replicas caches the predicted replica count for rarest-first batch.
	est      units.Duration
	replicas int
}

// newGroup takes a recycled group from the slab (growing it on first use).
func (s *referenceScheduler) newGroup(c volume.ChunkID, size units.Bytes) *refGroup {
	if s.usedGroups == len(s.groupSlab) {
		s.groupSlab = append(s.groupSlab, new(refGroup))
	}
	g := s.groupSlab[s.usedGroups]
	s.usedGroups++
	g.chunk = c
	g.size = size
	g.tasks = g.tasks[:0]
	g.est = 0
	g.replicas = 0
	return g
}

// groupByChunk buckets unassigned tasks of the given class by chunk into
// dst and returns it sorted by chunk ID for determinism. The byChunk map is
// cleared and reused between calls.
func (s *referenceScheduler) groupByChunk(queue []*Job, class Class, dst []*refGroup) []*refGroup {
	clear(s.byChunk)
	for _, j := range queue {
		if j.Class != class {
			continue
		}
		for i := range j.Tasks {
			t := &j.Tasks[i]
			if t.Assigned() {
				continue
			}
			g := s.byChunk[t.Chunk]
			if g == nil {
				g = s.newGroup(t.Chunk, t.Size)
				s.byChunk[t.Chunk] = g
			}
			g.tasks = append(g.tasks, t)
		}
	}
	for _, g := range s.byChunk {
		dst = append(dst, g)
	}
	slices.SortFunc(dst, func(a, b *refGroup) int { return volume.CompareChunks(a.chunk, b.chunk) })
	return dst
}

// Schedule implements Algorithm 1.
func (s *referenceScheduler) Schedule(now units.Time, queue []*Job, head *HeadState) []Assignment {
	lambda := now.Add(s.cycle) // λ: the next scheduling time
	if s.byChunk == nil {
		s.byChunk = make(map[volume.ChunkID]*refGroup)
	}
	s.usedGroups = 0
	out := s.out[:0]
	assign := func(t *Task, k NodeID) {
		t.State = TaskAssigned
		head.CommitAssign(t, k, now)
		out = append(out, Assignment{Task: t, Node: k})
	}

	// Lines 2–7: decompose queued jobs into per-chunk task groups.
	hi := s.groupByChunk(queue, Interactive, s.hi[:0])
	hb := s.groupByChunk(queue, Batch, s.hb[:0])
	s.hi, s.hb = hi, hb

	// Lines 8–9: split interactive groups into cached / non-cached; sort the
	// non-cached by estimated execution time so cheap loads start first.
	cached, nonCached := s.cached[:0], s.nonCached[:0]
	for _, g := range hi {
		if scanReplicaCount(head, g.chunk) > 0 {
			cached = append(cached, g)
		} else {
			g.est = head.Estimate(g.chunk, g.size, g.tasks[0].Job.GroupSize())
			nonCached = append(nonCached, g)
		}
	}
	s.cached, s.nonCached = cached, nonCached
	slices.SortStableFunc(nonCached, func(a, b *refGroup) int {
		if c := cmp.Compare(a.est, b.est); c != 0 {
			return c
		}
		return volume.CompareChunks(a.chunk, b.chunk)
	})

	// Lines 10–15: every interactive group goes, whole, to the node with the
	// earliest predicted completion for its chunk.
	placeWhole := func(g *refGroup) {
		k, ok := s.bestNode(now, g, head)
		if !ok {
			return // no node alive; engine will retry next cycle
		}
		for _, t := range g.tasks {
			assign(t, k)
		}
	}
	for _, g := range cached {
		placeWhole(g)
	}
	for _, g := range nonCached {
		placeWhole(g)
	}

	// Replication pass (§5.6, before cached batch reinforces primaries):
	// for each cached-but-under-replicated chunk, every spreadEvery-th
	// opportunity diverts one batch task to the chunk's secondary node. The
	// task misses there, which loads the chunk — a deliberate replica bought
	// with real work. The secondary must be ε-idle (the miss implies a disk
	// load, the same reasoning as non-cached batch) and still inside λ, and
	// diversion stops once the chunk is k-resident, so the policy never
	// drives replica counts past k.
	if s.Replicas > 1 {
		for _, g := range hb {
			rc := scanReplicaCount(head, g.chunk)
			if rc == 0 || rc >= s.Replicas {
				continue // zero-replica chunks take the rarest-first ε path
			}
			s.spreadTick++
			if s.spreadTick%s.spreadEvery() != 0 {
				continue
			}
			sec, ok := scanSecondaryFor(head, g.chunk)
			if !ok || !head.Available[sec].Before(lambda) {
				continue
			}
			if !s.DisableIdleGuard {
				eps := head.IdleThreshold(g.chunk, g.size, g.tasks[0].Job.GroupSize())
				if head.InteractiveIdle(sec, now) <= eps {
					continue
				}
			}
			assign(g.tasks[0], sec)
		}
	}

	// Lines 16–22: cached batch tasks fill each node until its predicted
	// available time crosses λ.
	for k := 0; k < head.Nodes(); k++ {
		node := NodeID(k)
		if !head.Alive(node) {
			continue
		}
	cachedBatch:
		for _, g := range hb {
			if !head.Caches[k].Contains(g.chunk) {
				continue
			}
			for _, t := range g.tasks {
				if t.Assigned() {
					continue
				}
				if !head.Available[k].Before(lambda) {
					break cachedBatch
				}
				assign(t, node)
			}
		}
	}

	// Lines 23–31: non-cached batch, rarest chunks first (fewest predicted
	// replicas), placed only on nodes idle of interactive work for ε.
	rest := s.rest[:0]
	for _, g := range hb {
		pending := g.tasks[:0]
		for _, t := range g.tasks {
			if !t.Assigned() {
				pending = append(pending, t)
			}
		}
		g.tasks = pending
		if len(g.tasks) > 0 {
			g.replicas = scanReplicaCount(head, g.chunk)
			rest = append(rest, g)
		}
	}
	s.rest = rest
	slices.SortStableFunc(rest, func(a, b *refGroup) int {
		if c := cmp.Compare(a.replicas, b.replicas); c != 0 {
			return c
		}
		return volume.CompareChunks(a.chunk, b.chunk)
	})
	gi := 0
	for k := 0; k < head.Nodes() && gi < len(rest); k++ {
		node := NodeID(k)
		if !head.Alive(node) {
			continue
		}
		for gi < len(rest) && head.Available[k].Before(lambda) {
			g := rest[gi]
			if len(g.tasks) == 0 {
				gi++
				continue
			}
			if !s.DisableIdleGuard {
				eps := head.IdleThreshold(g.chunk, g.size, g.tasks[0].Job.GroupSize())
				if head.InteractiveIdle(node, now) <= eps {
					break // this node served interactive work too recently
				}
			}
			// Replication (§5.6): once the group's first task has seeded a
			// home (replica count ≥ 1), later tasks of an under-replicated
			// chunk are occasionally diverted to the secondary, under the
			// same ε and λ conditions the primary placement obeys.
			target := node
			if s.Replicas > 1 {
				if rc := scanReplicaCount(head, g.chunk); rc > 0 && rc < s.Replicas {
					s.spreadTick++
					if s.spreadTick%s.spreadEvery() == 0 {
						if sec, ok := scanSecondaryFor(head, g.chunk); ok && sec != node &&
							head.Available[sec].Before(lambda) && s.idleOK(head, g, sec, now) {
							target = sec
						}
					}
				}
			}
			assign(g.tasks[0], target)
			g.tasks = g.tasks[1:]
		}
	}
	// Co-schedule pass (§5.13): every alive node the demand passes above
	// left idle — in steady state that means the ε-guard refused it
	// non-cached batch while it shadows an interactive stream — hosts at
	// most one batch guest at fractional share. The engine runs the guest
	// only while the node has no demand task and suspends its share the
	// instant one starts, so the guard's reason (a started load cannot be
	// abandoned) no longer applies. Guests prefer a chunk already cached on
	// the node (a pure-compute guest); failing that, the first pending group
	// in hb order — with QoS enabled the presented window was popped by DRR,
	// so guest picks inherit the same fair-order guarantee as demand batch.
	if s.coShare > 0 {
		firstUnassigned := func(g *refGroup) *Task {
			for _, t := range g.tasks {
				if !t.Assigned() {
					return t
				}
			}
			return nil
		}
		for k := 0; k < head.Nodes(); k++ {
			node := NodeID(k)
			if !head.Alive(node) || head.CoBusy(node) || head.Available[k].After(now) {
				continue
			}
			var pick *Task
			for _, g := range hb {
				if !head.Caches[k].Contains(g.chunk) {
					continue
				}
				if t := firstUnassigned(g); t != nil {
					pick = t
					break
				}
			}
			if pick == nil {
				for _, g := range hb {
					if t := firstUnassigned(g); t != nil {
						pick = t
						break
					}
				}
			}
			if pick == nil {
				break // no pending batch work anywhere
			}
			pick.State = TaskAssigned
			head.CommitCoAssign(pick, node, now)
			out = append(out, Assignment{Task: pick, Node: node, CoScheduled: true})
		}
	}

	// Prefetch pass (§5.8): runs last, over whatever idle capacity the
	// demand passes left inside [now, λ).
	s.prefetches = s.prefetches[:0]
	if s.prefetch != nil {
		s.prefetches = append(s.prefetches, s.prefetch.Plan(now, lambda, head)...)
	}
	s.out = out
	return out
}

// idleOK reports whether node k satisfies the ε idle-time condition for
// placing a non-cached batch task of the group's chunk.
func (s *referenceScheduler) idleOK(head *HeadState, g *refGroup, k NodeID, now units.Time) bool {
	if s.DisableIdleGuard {
		return true
	}
	eps := head.IdleThreshold(g.chunk, g.size, g.tasks[0].Job.GroupSize())
	return head.InteractiveIdle(k, now) > eps
}

// bestNode returns the alive node minimizing predicted completion time for
// the group's chunk: max(Available[k], now) + cost, where cost is the hit
// cost on nodes predicted to hold the chunk and Estimate[c] elsewhere.
func (s *referenceScheduler) bestNode(now units.Time, g *refGroup, head *HeadState) (NodeID, bool) {
	best := NodeID(-1)
	var bestDone units.Time
	for k := 0; k < head.Nodes(); k++ {
		if !head.Alive(NodeID(k)) {
			continue
		}
		start := head.Available[k]
		if start < now {
			start = now
		}
		done := start.Add(head.PredictExec(g.tasks[0], NodeID(k)))
		if best < 0 || done < bestDone {
			best = NodeID(k)
			bestDone = done
		}
	}
	return best, best >= 0
}
