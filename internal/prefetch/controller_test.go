package prefetch

import (
	"fmt"
	"math"
	"math/rand"
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

// referencePlan is Plan as it stood before it skipped the ranking on cycles
// no node can warm on, kept verbatim over referenceCandidates, so
// TestPlanMatchesReference can hold Plan to it directive for directive.
func referencePlan(c *Controller, now, lambda units.Time, head *core.HeadState) []core.PrefetchDirective {
	out := c.scratch[:0]
	for _, cand := range referenceCandidates(c.pred, now, c.cfg.TopK) {
		size := c.sizeOf(cand.Chunk)
		if size <= 0 {
			continue // extrapolated past a dataset edge
		}
		if c.inflightChunk[cand.Chunk] > 0 {
			continue // already warming somewhere
		}
		if head.ReplicaCount(cand.Chunk) > 0 {
			continue // already predicted resident
		}
		guard := head.IdleThreshold(cand.Chunk, size, 1)
		best := core.NodeID(-1)
		for k := 0; k < head.Nodes(); k++ {
			node := core.NodeID(k)
			if !head.Alive(node) {
				continue
			}
			if _, busy := c.inflight[node]; busy {
				continue
			}
			if !head.Available[k].Before(lambda) {
				continue // demand work fills past λ: no idle window
			}
			if c.churned[node][cand.Chunk] {
				continue // a warm displaced it here; re-warming would cycle
			}
			if head.InteractiveIdle(node, now) <= guard {
				continue // served interactive work too recently
			}
			if best < 0 || head.Available[k] < head.Available[best] {
				best = node
			}
		}
		if best < 0 {
			continue
		}
		if !c.gov.Allow(best, size, now) {
			continue
		}
		c.inflight[best] = cand.Chunk
		c.inflightChunk[cand.Chunk]++
		c.issued++
		c.bytes += size
		out = append(out, core.PrefetchDirective{Node: best, Chunk: cand.Chunk, Size: size})
	}
	c.scratch = out
	return out
}

// scriptSizeOf treats datasets 0–5 as 16 chunks of 64 MB each.
func scriptSizeOf(c volume.ChunkID) units.Bytes {
	if c.Dataset < 0 || c.Dataset >= 6 || c.Index < 0 || c.Index >= 16 {
		return 0
	}
	return testChunk
}

// sameCandidates fails the test unless got and want name the same chunks in
// the same order with the same float64 bits in every score.
func sameCandidates(t *testing.T, where string, got, want []Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, reference %d", where, len(got), len(want))
	}
	for i := range want {
		if got[i].Chunk != want[i].Chunk || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: candidate %d is %+v, reference %+v", where, i, got[i], want[i])
		}
	}
}

// TestPlanMatchesReference drives a controller and one running referencePlan
// through the same seeded scripts of observations, planning cycles against
// random health, Available and λ (many with no node able to warm), landed
// and cancelled warms, evictions, failures and bring-up warms. Every Plan
// must return the reference's directives, and every later Candidates must
// return the reference ranking to the last bit: a skipped cycle must age the
// prior exactly as a ranked one does.
func TestPlanMatchesReference(t *testing.T) {
	const nodes = 4
	steps := []delta{{0, 1}, {0, 1}, {0, 2}, {1, 0}, {0, -1}, {0, 0}}
	for seed := int64(1); seed <= 16; seed++ {
		cfg := scriptConfigs[seed%int64(len(scriptConfigs))]
		fast := NewController(cfg, nodes, scriptSizeOf)
		ref := NewController(cfg, nodes, scriptSizeOf)
		head := core.NewHeadState(nodes, units.GB, core.System1CostModel())
		rng := rand.New(rand.NewSource(seed))
		pos := map[core.ActionID]volume.ChunkID{}
		now := units.Time(0)
		ranked, skipped := 0, 0
		for i := 0; i < 600; i++ {
			where := func(what string) string { return fmt.Sprintf("seed %d step %d %s", seed, i, what) }
			switch op := rng.Intn(20); {
			case op < 8:
				a := core.ActionID(rng.Intn(5) + 1)
				c := apply(pos[a], steps[rng.Intn(len(steps))])
				pos[a] = c
				fast.Observe(a, c, now)
				ref.Observe(a, c, now)
			case op < 14:
				for k := 0; k < nodes; k++ {
					head.Available[k] = now.Add(units.Duration(rng.Intn(3000)-1000) * units.Millisecond)
				}
				lambda := now.Add(units.Duration(rng.Intn(1500)) * units.Millisecond)
				skipped++
				for k := 0; k < nodes; k++ {
					if fast.open(core.NodeID(k), lambda, head) {
						skipped, ranked = skipped-1, ranked+1
						break
					}
				}
				got, want := fast.Plan(now, lambda, head), referencePlan(ref, now, lambda, head)
				if len(got) != len(want) {
					t.Fatalf("%s: %d directives, reference %d", where("Plan"), len(got), len(want))
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("%s: directive %d is %+v, reference %+v", where("Plan"), j, got[j], want[j])
					}
				}
			case op < 16:
				k := core.NodeID(rng.Intn(nodes))
				chunk, ok := fast.InFlight(k)
				if rchunk, rok := ref.InFlight(k); chunk != rchunk || ok != rok {
					t.Fatalf("%s: node %d warms %v %v, reference %v %v", where("InFlight"), k, chunk, ok, rchunk, rok)
				}
				if !ok {
					break
				}
				if rng.Intn(3) > 0 {
					fast.Loaded(k, chunk)
					ref.Loaded(k, chunk)
					head.LandWarm(chunk, k, testChunk, nil)
				} else {
					fast.Cancel(k, chunk)
					ref.Cancel(k, chunk)
				}
			case op == 16:
				k := core.NodeID(rng.Intn(nodes))
				c := volume.ChunkID{Dataset: volume.DatasetID(rng.Intn(6)), Index: rng.Intn(16)}
				fast.NoteEvicted(k, c)
				ref.NoteEvicted(k, c)
			case op == 17:
				k := core.NodeID(rng.Intn(nodes))
				if head.Alive(k) {
					fast.FailNode(k)
					ref.FailNode(k)
					head.MarkFailed(k)
				} else {
					head.MarkRepaired(k, now)
				}
			case op == 18:
				k := core.NodeID(rng.Intn(nodes))
				got, gok := fast.Warmup(now, k, head)
				want, wok := ref.Warmup(now, k, head)
				if got != want || gok != wok {
					t.Fatalf("%s: %+v %v, reference %+v %v", where("Warmup"), got, gok, want, wok)
				}
			default:
				q := now.Add(units.Duration(rng.Intn(1500)-500) * units.Millisecond)
				sameCandidates(t, where("Candidates"), fast.pred.Candidates(q, fast.cfg.TopK), referenceCandidates(ref.pred, q, ref.cfg.TopK))
			}
			step := units.Duration(rng.Intn(400)) * units.Millisecond
			if rng.Intn(60) == 0 {
				step = 30 * units.Second
			}
			now = now.Add(step)
		}
		sameCandidates(t, "final Candidates", fast.pred.Candidates(now, 64), referenceCandidates(ref.pred, now, 64))
		if got, want := fast.Outcome(head), ref.Outcome(head); *got != *want {
			t.Fatalf("seed %d: outcome %+v, reference %+v", seed, *got, *want)
		}
		if ranked == 0 || skipped == 0 {
			t.Fatalf("seed %d: %d ranked and %d skipped cycles, want both", seed, ranked, skipped)
		}
	}
}

// TestPlanNoAllocs: once warm, a planning cycle allocates nothing, whether
// it ranks candidates or only ages the prior.
func TestPlanNoAllocs(t *testing.T) {
	ctl := NewController(&Config{Burst: 64 * units.GB}, 4, func(volume.ChunkID) units.Bytes { return testChunk })
	head := core.NewHeadState(4, units.GB, core.System1CostModel())
	var last units.Time
	observeSeeded(3, func(now units.Time, _ int) { last = now }, ctl.pred)
	lambda := last.Add(units.Second)
	cycle := func() {
		for _, d := range ctl.Plan(last, lambda, head) {
			ctl.Cancel(d.Node, d.Chunk)
		}
	}
	dirs := ctl.Plan(last, lambda, head)
	if len(dirs) == 0 {
		t.Fatal("no directives after a seeded stream")
	}
	for _, d := range dirs {
		ctl.Cancel(d.Node, d.Chunk)
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("a ranked Plan allocates %v times a call, want 0", allocs)
	}
	for k := range head.Available {
		head.Available[k] = lambda
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("a skipped Plan allocates %v times a call, want 0", allocs)
	}
}
