package baselines

import (
	"testing"

	"vizsched/internal/core"
	"vizsched/internal/units"
	"vizsched/internal/volume"
)

func mkJob(id core.JobID, class core.Class, action core.ActionID, ds volume.DatasetID, nChunks int, size units.Bytes) *core.Job {
	j := &core.Job{ID: id, Class: class, Action: action, Dataset: ds}
	j.Tasks = make([]core.Task, nChunks)
	for i := range j.Tasks {
		j.Tasks[i] = core.Task{
			Job:   j,
			Index: i,
			Chunk: volume.ChunkID{Dataset: ds, Index: i},
			Size:  size,
		}
	}
	j.Remaining = int32(nChunks)
	return j
}

func newHead(n int) *core.HeadState {
	return core.NewHeadState(n, 2*units.GB, core.DefaultCostModel())
}

func TestMetadata(t *testing.T) {
	cases := []struct {
		s       core.Scheduler
		name    string
		trigger core.Trigger
	}{
		{FCFS{}, "FCFS", core.OnArrival},
		{FCFSL{}, "FCFSL", core.OnArrival},
		{FCFSU{}, "FCFSU", core.OnArrival},
		{NewSF(0), "SF", core.Periodic},
		{NewFS(0), "FS", core.Periodic},
	}
	for _, c := range cases {
		if c.s.Name() != c.name {
			t.Errorf("Name = %q, want %q", c.s.Name(), c.name)
		}
		if c.s.Trigger() != c.trigger {
			t.Errorf("%s trigger = %v, want %v", c.name, c.s.Trigger(), c.trigger)
		}
	}
}

func TestFCFSBalancesByAvailableTime(t *testing.T) {
	h := newHead(4)
	j := mkJob(1, core.Interactive, 1, 1, 4, 512*units.MB)
	as := FCFS{}.Schedule(0, []*core.Job{j}, h)
	if len(as) != 4 {
		t.Fatalf("assigned %d, want 4", len(as))
	}
	seen := map[core.NodeID]bool{}
	for _, a := range as {
		seen[a.Node] = true
	}
	// Four equal tasks over four idle nodes: one each.
	if len(seen) != 4 {
		t.Errorf("FCFS used %d nodes, want 4", len(seen))
	}
}

func TestFCFSIgnoresLocality(t *testing.T) {
	h := newHead(2)
	j := mkJob(1, core.Interactive, 1, 1, 1, 512*units.MB)
	// Node 1 caches the chunk but is marginally busier: FCFS picks node 0
	// (smaller available time) anyway.
	h.Caches[1].Insert(j.Tasks[0].Chunk, j.Tasks[0].Size)
	h.Available[1] = units.Time(units.Millisecond)
	as := FCFS{}.Schedule(0, []*core.Job{j}, h)
	if as[0].Node != 0 {
		t.Errorf("FCFS chose node %d; locality should not matter", as[0].Node)
	}
}

func TestFCFSLPrefersCachedNode(t *testing.T) {
	h := newHead(2)
	j := mkJob(1, core.Interactive, 1, 1, 1, 512*units.MB)
	h.Caches[1].Insert(j.Tasks[0].Chunk, j.Tasks[0].Size)
	h.Available[1] = units.Time(units.Millisecond)
	as := FCFSL{}.Schedule(0, []*core.Job{j}, h)
	if as[0].Node != 1 {
		t.Errorf("FCFSL chose node %d, want cached node 1", as[0].Node)
	}
}

func TestFCFSLSchedulesBatchImmediately(t *testing.T) {
	// The key behavioral difference from OURS: FCFSL does not defer batch.
	h := newHead(2)
	b := mkJob(1, core.Batch, 1, 9, 2, 512*units.MB)
	as := FCFSL{}.Schedule(0, []*core.Job{b}, h)
	if len(as) != 2 {
		t.Errorf("FCFSL deferred batch: assigned %d of 2", len(as))
	}
}

func TestFCFSUFixedMapping(t *testing.T) {
	h := newHead(4)
	j := mkJob(1, core.Interactive, 1, 1, 4, 256*units.MB)
	as := FCFSU{}.Schedule(0, []*core.Job{j}, h)
	for _, a := range as {
		if int(a.Node) != a.Task.Index {
			t.Errorf("task %d on node %d, want fixed mapping", a.Task.Index, a.Node)
		}
	}
	// Decomposition override: one chunk per node.
	d := FCFSU{}.Decomposition(4)
	if got := len(d.Split(units.GB)); got != 4 {
		t.Errorf("uniform decomposition yielded %d chunks, want 4", got)
	}
}

func TestFCFSUFallsBackOnFailedNode(t *testing.T) {
	h := newHead(4)
	h.MarkFailed(2)
	j := mkJob(1, core.Interactive, 1, 1, 4, 256*units.MB)
	as := FCFSU{}.Schedule(0, []*core.Job{j}, h)
	if len(as) != 4 {
		t.Fatalf("assigned %d, want 4", len(as))
	}
	for _, a := range as {
		if a.Node == 2 {
			t.Error("task placed on failed node")
		}
	}
}

func TestSFOrdersShortestFirst(t *testing.T) {
	h := newHead(1)
	big := mkJob(1, core.Batch, 1, 1, 4, 512*units.MB)
	small := mkJob(2, core.Batch, 2, 2, 1, 64*units.MB)
	as := NewSF(0).Schedule(0, []*core.Job{big, small}, h)
	if len(as) != 5 {
		t.Fatalf("assigned %d, want 5", len(as))
	}
	// The single-chunk 64MB job must be placed before the 4×512MB job.
	if as[0].Task.Job.ID != 2 {
		t.Errorf("first assignment from job %d, want the short job", as[0].Task.Job.ID)
	}
}

func TestFSServesLeastServedActionFirst(t *testing.T) {
	fs := NewFS(0)
	h := newHead(2)
	// Action 1 has already consumed lots of service.
	fs.service[1] = 100 * units.Second
	j1 := mkJob(1, core.Interactive, 1, 1, 1, 64*units.MB)
	j2 := mkJob(2, core.Interactive, 2, 2, 1, 64*units.MB)
	as := fs.Schedule(0, []*core.Job{j1, j2}, h)
	if len(as) == 0 {
		t.Fatal("nothing assigned")
	}
	if as[0].Task.Job.ID != 2 {
		t.Errorf("first served job %d, want least-served action's job 2", as[0].Task.Job.ID)
	}
}

func TestFSInterleavesActionsUnderBacklog(t *testing.T) {
	fs := NewFS(10 * units.Millisecond)
	h := newHead(1)
	// Two actions, two queued jobs each: FS must alternate actions rather
	// than assign one user's burst first.
	var jobs []*core.Job
	for i := 0; i < 4; i++ {
		jobs = append(jobs, mkJob(core.JobID(i+1), core.Interactive, core.ActionID(i%2+1), 1, 1, 64*units.MB))
	}
	as := fs.Schedule(0, jobs, h)
	if len(as) != 4 {
		t.Fatalf("FS assigned %d of 4", len(as))
	}
	if a0, a1 := as[0].Task.Job.Action, as[1].Task.Job.Action; a0 == a1 {
		t.Errorf("first two assignments from the same action %d; want interleaved", a0)
	}
}

func TestFSAccumulatesService(t *testing.T) {
	fs := NewFS(units.Second)
	h := newHead(2)
	j := mkJob(1, core.Interactive, 7, 1, 2, 256*units.MB)
	fs.Schedule(0, []*core.Job{j}, h)
	if fs.service[7] <= 0 {
		t.Error("service not accumulated for action 7")
	}
}

func TestAllBaselinesHandleNoAliveNodes(t *testing.T) {
	scheds := []core.Scheduler{FCFS{}, FCFSL{}, FCFSU{}, NewSF(0), NewFS(0)}
	for _, s := range scheds {
		h := newHead(2)
		h.MarkFailed(0)
		h.MarkFailed(1)
		j := mkJob(1, core.Interactive, 1, 1, 2, 256*units.MB)
		if as := s.Schedule(0, []*core.Job{j}, h); len(as) != 0 {
			t.Errorf("%s assigned %d tasks with no nodes alive", s.Name(), len(as))
		}
	}
}

func TestSchedulersSkipAssignedTasks(t *testing.T) {
	scheds := []core.Scheduler{FCFS{}, FCFSL{}, FCFSU{}, NewSF(0), NewFS(0)}
	for _, s := range scheds {
		h := newHead(2)
		j := mkJob(1, core.Interactive, 1, 1, 2, 256*units.MB)
		j.Tasks[0].State = core.TaskAssigned
		as := s.Schedule(0, []*core.Job{j}, h)
		if len(as) != 1 || as[0].Task.Index != 1 {
			t.Errorf("%s reassigned already-assigned task: %v", s.Name(), as)
		}
	}
}
