package prefetch

import (
	"testing"

	"vizsched/internal/core"
	"vizsched/internal/units"
	"vizsched/internal/volume"
)

const testChunk = 64 * units.MB

// testSizeOf treats every dataset as 4 chunks of 64 MB.
func testSizeOf(c volume.ChunkID) units.Bytes {
	if c.Dataset < 0 || c.Index < 0 || c.Index >= 4 {
		return 0
	}
	return testChunk
}

func newTestController(n int) (*Controller, *core.HeadState) {
	ctl := NewController(nil, n, testSizeOf)
	head := core.NewHeadState(n, units.GB, core.System1CostModel())
	return ctl, head
}

// trainRun feeds the controller a straight index walk so the predictor has
// a confident continuation.
func trainRun(ctl *Controller, action core.ActionID, n int, now units.Time) volume.ChunkID {
	var last volume.ChunkID
	for i := 0; i < n; i++ {
		last = volume.ChunkID{Dataset: 0, Index: i}
		ctl.Observe(action, last, now)
	}
	return last
}

func TestPrefetchControllerPlansIdleNode(t *testing.T) {
	ctl, head := newTestController(2)
	trainRun(ctl, 1, 3, at(1))

	lambda := at(10)
	dirs := ctl.Plan(at(1), lambda, head)
	if len(dirs) == 0 {
		t.Fatal("no directives despite idle nodes and a confident predictor")
	}
	d := dirs[0]
	if d.Chunk != (volume.ChunkID{Dataset: 0, Index: 3}) {
		t.Fatalf("warmed %v, want the stream continuation {0 3}", d.Chunk)
	}
	if d.Size != testChunk {
		t.Fatalf("directive size = %v, want %v", d.Size, testChunk)
	}
	if _, busy := ctl.InFlight(d.Node); !busy {
		t.Fatal("planned node not tracked in flight")
	}

	// Same chunk is never planned twice while in flight.
	for _, d2 := range ctl.Plan(at(1), lambda, head) {
		if d2.Chunk == d.Chunk {
			t.Fatal("replanned a chunk already warming")
		}
	}

	// After Loaded the chunk is (simulated) resident; ReplicaCount guards it.
	ctl.Loaded(d.Node, d.Chunk)
	head.LandWarm(d.Chunk, d.Node, d.Size, nil)
	for _, d3 := range ctl.Plan(at(2), lambda, head) {
		if d3.Chunk == d.Chunk {
			t.Fatal("replanned a chunk already predicted resident")
		}
	}
}

func TestPrefetchControllerRespectsDemandBacklog(t *testing.T) {
	ctl, head := newTestController(2)
	trainRun(ctl, 1, 3, at(1))

	// Both nodes predicted busy past λ: no idle window anywhere.
	lambda := at(5)
	head.Available[0] = at(20)
	head.Available[1] = at(30)
	if dirs := ctl.Plan(at(1), lambda, head); len(dirs) != 0 {
		t.Fatalf("planned %d warms onto backlogged nodes", len(dirs))
	}

	// Free one node: warming resumes, on that node only.
	head.Available[1] = at(1)
	dirs := ctl.Plan(at(1), lambda, head)
	if len(dirs) == 0 {
		t.Fatal("no directives with an idle node available")
	}
	for _, d := range dirs {
		if d.Node != 1 {
			t.Fatalf("warm placed on backlogged node %d", d.Node)
		}
	}
}

func TestPrefetchControllerSkipsDeadNodes(t *testing.T) {
	ctl, head := newTestController(2)
	trainRun(ctl, 1, 3, at(1))
	head.MarkFailed(0)
	dirs := ctl.Plan(at(1), at(10), head)
	for _, d := range dirs {
		if d.Node == 0 {
			t.Fatal("warm placed on a down node")
		}
	}
	if len(dirs) == 0 {
		t.Fatal("surviving node got no warms")
	}
}

func TestPrefetchControllerGovernorGates(t *testing.T) {
	cfg := &Config{RateBytesPerSec: units.MB, Burst: testChunk}
	ctl := NewController(cfg, 1, testSizeOf)
	head := core.NewHeadState(1, units.GB, core.System1CostModel())
	// Two live streams on different datasets, each with a continuation, so
	// the planner would like to warm two chunks on the single node; the
	// burst only covers one.
	for i := 0; i < 3; i++ {
		ctl.Observe(1, volume.ChunkID{Dataset: 0, Index: i}, at(1))
		ctl.Observe(2, volume.ChunkID{Dataset: 1, Index: i}, at(1))
	}
	dirs := ctl.Plan(at(1), at(50), head)
	if len(dirs) != 1 {
		t.Fatalf("governor let through %d warms, bucket holds exactly 1", len(dirs))
	}
	// Settle it; the bucket is empty, so the next cycle plans nothing.
	ctl.Loaded(dirs[0].Node, dirs[0].Chunk)
	if extra := ctl.Plan(at(1), at(50), head); len(extra) != 0 {
		t.Fatalf("empty bucket still granted %d warms", len(extra))
	}
}

func TestPrefetchControllerLifecycleCounters(t *testing.T) {
	ctl, head := newTestController(4)
	trainRun(ctl, 1, 3, at(1))
	dirs := ctl.Plan(at(1), at(10), head)
	if len(dirs) == 0 {
		t.Fatal("no directives")
	}
	d := dirs[0]
	ctl.Cancel(d.Node, d.Chunk)
	if _, busy := ctl.InFlight(d.Node); busy {
		t.Fatal("cancelled warm still in flight")
	}
	// Settling twice is a safe no-op.
	ctl.Cancel(d.Node, d.Chunk)
	ctl.FailNode(d.Node)

	out := ctl.Outcome(head)
	if out.Issued != int64(len(dirs)) || out.Cancelled != 1 {
		t.Fatalf("outcome issued=%d cancelled=%d, want issued=%d cancelled=1",
			out.Issued, out.Cancelled, len(dirs))
	}
	if out.BytesMoved != units.Bytes(len(dirs))*testChunk {
		t.Fatalf("bytes moved = %v", out.BytesMoved)
	}
}

// Landed warms + demand touch + eviction drive the head-side accuracy
// counters that Outcome folds in.
func TestPrefetchAccuracyAccounting(t *testing.T) {
	ctl, head := newTestController(2)
	a := volume.ChunkID{Dataset: 0, Index: 0}
	b := volume.ChunkID{Dataset: 0, Index: 1}
	c := volume.ChunkID{Dataset: 0, Index: 2}

	head.LandWarm(a, 0, testChunk, nil)
	head.LandWarm(b, 0, testChunk, nil)
	head.LandWarm(c, 1, testChunk, nil)

	if !head.IsPrefetched(a, 0) {
		t.Fatal("a not marked prefetched")
	}
	head.DemandTouchPrefetched(a, 0) // demand hit
	if head.IsPrefetched(a, 0) {
		t.Fatal("demand touch did not clear the mark")
	}
	d := volume.ChunkID{Dataset: 0, Index: 3}
	head.LandWarm(d, 0, testChunk, []volume.ChunkID{b}) // b evicted unused
	head.NotePrefetchHidden()                           // absorbed in flight

	out := ctl.Outcome(head)
	if out.Hits != 1 || out.HiddenHits != 1 || out.Wasted != 1 {
		t.Fatalf("accuracy = hits %d hidden %d wasted %d, want 1/1/1",
			out.Hits, out.HiddenHits, out.Wasted)
	}
	// c on node 1 is still marked; a node failure wastes it.
	head.MarkFailed(1)
	if _, _, wasted := head.PrefetchAccuracy(); wasted != 2 {
		t.Fatalf("node failure did not waste its prefetched chunk: wasted=%d", wasted)
	}
}
