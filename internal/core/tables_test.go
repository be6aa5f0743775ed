package core

import (
	"testing"

	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// mkJob builds a test job over a dataset with nChunks chunks of the given
// size.
func mkJob(id JobID, class Class, action ActionID, ds volume.DatasetID, nChunks int, size units.Bytes, issued units.Time) *Job {
	j := &Job{ID: id, Class: class, Action: action, Dataset: ds, Issued: issued}
	j.Tasks = make([]Task, nChunks)
	for i := range j.Tasks {
		j.Tasks[i] = Task{
			Job:   j,
			Index: i,
			Chunk: volume.ChunkID{Dataset: ds, Index: i},
			Size:  size,
		}
	}
	j.Remaining = nChunks
	return j
}

func newHead(n int) *HeadState {
	return NewHeadState(n, 2*units.GB, DefaultCostModel())
}

func TestNewHeadStatePanicsOnZeroNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewHeadState(0, units.GB, DefaultCostModel())
}

func TestEstimateLazyInitAndOverride(t *testing.T) {
	h := newHead(2)
	c := volume.ChunkID{Dataset: 1, Index: 0}
	e := h.Estimate(c, 512*units.MB, 4)
	if e != h.Model.MissExec(512*units.MB, 4) {
		t.Errorf("initial estimate = %v", e)
	}
	// A correction for a miss overwrites the estimate with the observed time.
	j := mkJob(1, Interactive, 1, 1, 4, 512*units.MB, 0)
	h.Correct(TaskResult{
		Task: &j.Tasks[0], Node: 0, Hit: false,
		Exec: 3 * units.Second, Predicted: e,
	}, units.Time(10*units.Second))
	if got := h.Estimate(c, 512*units.MB, 4); got != 3*units.Second {
		t.Errorf("estimate after correction = %v, want 3s", got)
	}
	// Hits do not touch the estimate.
	h.Correct(TaskResult{
		Task: &j.Tasks[0], Node: 0, Hit: true,
		Exec: 8 * units.Millisecond, Predicted: 8 * units.Millisecond,
	}, units.Time(11*units.Second))
	if got := h.Estimate(c, 512*units.MB, 4); got != 3*units.Second {
		t.Errorf("estimate after hit correction = %v, want 3s", got)
	}
}

func TestIdleThresholdIsHalfEstimate(t *testing.T) {
	h := newHead(2)
	c := volume.ChunkID{Dataset: 1, Index: 0}
	e := h.Estimate(c, 512*units.MB, 4)
	if got := h.IdleThreshold(c, 512*units.MB, 4); got != e/2 {
		t.Errorf("ε = %v, want %v", got, e/2)
	}
}

func TestCommitAssignUpdatesTables(t *testing.T) {
	h := newHead(2)
	j := mkJob(1, Interactive, 1, 1, 4, 512*units.MB, 0)
	tk := &j.Tasks[0]
	now := units.Time(units.Second)

	exec := h.CommitAssign(tk, 0, now)
	if exec != h.Model.MissExec(512*units.MB, 4) {
		t.Errorf("predicted exec = %v", exec)
	}
	if h.Available[0] != now.Add(exec) {
		t.Errorf("Available[0] = %v, want %v", h.Available[0], now.Add(exec))
	}
	if !h.Caches[0].Contains(tk.Chunk) {
		t.Error("predicted cache missing chunk after assign")
	}
	if h.InteractiveIdle(0, now) != 0 {
		t.Errorf("lastInteractive not stamped: idle = %v", h.InteractiveIdle(0, now))
	}
	// Second assignment of the same chunk predicts a hit.
	tk2 := &j.Tasks[1]
	tk2.Chunk = tk.Chunk
	exec2 := h.CommitAssign(tk2, 0, now)
	if exec2 != h.Model.HitExec(512*units.MB, 4) {
		t.Errorf("second assign predicted %v, want hit cost", exec2)
	}
}

func TestCommitAssignBatchDoesNotStampInteractive(t *testing.T) {
	h := newHead(1)
	j := mkJob(1, Batch, 1, 1, 1, units.MB, 0)
	now := units.Time(units.Second)
	h.CommitAssign(&j.Tasks[0], 0, now)
	if h.InteractiveIdle(0, now) <= 0 {
		t.Error("batch assignment stamped lastInteractive")
	}
}

func TestCorrectAppliesDriftAndEvictions(t *testing.T) {
	h := newHead(1)
	j := mkJob(1, Interactive, 1, 1, 2, 512*units.MB, 0)
	now := units.Time(0)
	pred := h.CommitAssign(&j.Tasks[0], 0, now)
	availBefore := h.Available[0]

	// The task actually ran 1s longer than predicted, and the node evicted
	// a chunk the head thought was resident.
	other := volume.ChunkID{Dataset: 9, Index: 0}
	h.Caches[0].Insert(other, 512*units.MB)
	h.Correct(TaskResult{
		Task: &j.Tasks[0], Node: 0, Hit: false,
		Exec: pred + units.Duration(units.Second), Predicted: pred,
		Evicted: []volume.ChunkID{other},
	}, units.Time(0))
	if h.Available[0] != availBefore.Add(units.Duration(units.Second)) {
		t.Errorf("Available not drifted: %v", h.Available[0])
	}
	if h.Caches[0].Contains(other) {
		t.Error("evicted chunk still predicted resident")
	}
	if !h.Caches[0].Contains(j.Tasks[0].Chunk) {
		t.Error("executed chunk not predicted resident")
	}
}

func TestCorrectClampsAvailableToNow(t *testing.T) {
	h := newHead(1)
	j := mkJob(1, Interactive, 1, 1, 1, units.MB, 0)
	now := units.Time(0)
	pred := h.CommitAssign(&j.Tasks[0], 0, now)
	// Task finished far faster than predicted; Available must not go below
	// the correction time.
	at := units.Time(5 * units.Second)
	h.Correct(TaskResult{
		Task: &j.Tasks[0], Node: 0, Hit: true,
		Exec: units.Duration(units.Millisecond), Predicted: pred + 100*units.Second,
	}, at)
	if h.Available[0] != at {
		t.Errorf("Available = %v, want clamped to %v", h.Available[0], at)
	}
}

func TestCachedOnAndFailure(t *testing.T) {
	h := newHead(3)
	c := volume.ChunkID{Dataset: 1, Index: 0}
	h.Caches[0].Insert(c, units.MB)
	h.Caches[2].Insert(c, units.MB)
	nodes := h.CachedOn(c)
	if len(nodes) != 2 || nodes[0] != 0 || nodes[1] != 2 {
		t.Errorf("CachedOn = %v", nodes)
	}
	h.MarkFailed(0)
	if h.Alive(0) {
		t.Error("failed node still alive")
	}
	nodes = h.CachedOn(c)
	if len(nodes) != 1 || nodes[0] != 2 {
		t.Errorf("CachedOn after failure = %v", nodes)
	}
	h.MarkRepaired(0, units.Time(units.Second))
	if !h.Alive(0) || h.Available[0] != units.Time(units.Second) {
		t.Error("repair did not restore node")
	}
	if h.Caches[0].Contains(c) {
		t.Error("repaired node should come back cold")
	}
}

func TestPredictExecUsesCacheState(t *testing.T) {
	h := newHead(2)
	j := mkJob(1, Interactive, 1, 1, 4, 512*units.MB, 0)
	tk := &j.Tasks[0]
	miss := h.PredictExec(tk, 0)
	h.Caches[0].Insert(tk.Chunk, tk.Size)
	hit := h.PredictExec(tk, 0)
	if hit >= miss {
		t.Errorf("hit %v not cheaper than miss %v", hit, miss)
	}
	if hit != h.Model.HitExec(tk.Size, 4) {
		t.Errorf("hit = %v", hit)
	}
}

// AnyIdle is the back-pressure test of the arrival-triggered cycle: only a
// node that takes work counts, and one that frees up at exactly now is idle.
func TestIdleHeadCountsOnlyAliveNodes(t *testing.T) {
	const now = units.Time(10 * units.Millisecond)
	h := newHead(4)
	if !h.AnyIdle(now) {
		t.Error("a fresh cluster is idle")
	}
	for k := range h.Available {
		h.Available[k] = now + 1
	}
	if h.AnyIdle(now) {
		t.Error("every node busy past now, yet one reads idle")
	}
	h.Available[2] = now
	if !h.AnyIdle(now) {
		t.Error("a node available at exactly now is idle")
	}
	// The one idle node, taken out of service each way a node can be.
	h.MarkSuspect(2)
	if h.AnyIdle(now) {
		t.Error("a suspect node takes no work")
	}
	h.MarkUp(2)
	if !h.MarkDraining(2) || h.AnyIdle(now) {
		t.Error("a draining node takes no work")
	}
	h.CompleteDrain(2)
	if h.AnyIdle(now) {
		t.Error("a down node takes no work")
	}
	h.MarkRepaired(2, now)
	if !h.AnyIdle(now) {
		t.Error("a repaired node is available from now")
	}
}
