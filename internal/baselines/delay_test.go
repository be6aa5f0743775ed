package baselines

import (
	"testing"

	"vizsched/internal/core"
	"vizsched/internal/units"
)

func TestDelayMetadata(t *testing.T) {
	d := NewDelay(0, 0)
	if d.Name() != "DELAY" || d.Trigger() != core.Periodic {
		t.Error("metadata wrong")
	}
	if d.Cycle() != core.DefaultCycle || d.Wait != 5*core.DefaultCycle {
		t.Errorf("defaults: cycle=%v wait=%v", d.Cycle(), d.Wait)
	}
}

func TestDelayPrefersBusyLocalNodeWithinWait(t *testing.T) {
	d := NewDelay(10*units.Millisecond, 50*units.Millisecond)
	h := newHead(2)
	j := mkJob(1, core.Interactive, 1, 1, 1, 512*units.MB)
	// Node 1 caches the chunk but is busy for 30ms — within the wait bound;
	// node 0 is idle. Delay scheduling queues on the busy local node.
	h.Caches[1].Insert(j.Tasks[0].Chunk, j.Tasks[0].Size)
	h.Available[1] = units.Time(30 * units.Millisecond)
	as := d.Schedule(0, []*core.Job{j}, h)
	if len(as) != 1 || as[0].Node != 1 {
		t.Fatalf("assigned %v, want busy local node 1", as)
	}
}

func TestDelayDefersWhenLocalTooBusy(t *testing.T) {
	d := NewDelay(10*units.Millisecond, 50*units.Millisecond)
	h := newHead(2)
	j := mkJob(1, core.Interactive, 1, 1, 1, 512*units.MB)
	j.Issued = 0
	h.Caches[1].Insert(j.Tasks[0].Chunk, j.Tasks[0].Size)
	// Local node busy beyond the wait bound, job fresh: defer entirely.
	h.Available[1] = units.Time(10 * units.Second)
	as := d.Schedule(0, []*core.Job{j}, h)
	if len(as) != 0 {
		t.Fatalf("assigned %v, want deferral", as)
	}
	if j.Tasks[0].Assigned() {
		t.Error("task marked assigned while deferred")
	}
	// After the job has waited past D, it accepts a non-local node.
	later := units.Time(100 * units.Millisecond)
	as = d.Schedule(later, []*core.Job{j}, h)
	if len(as) != 1 || as[0].Node != 0 {
		t.Fatalf("assigned %v after wait, want fallback to node 0", as)
	}
}

func TestDelayGreedyWhenNoReplicaExists(t *testing.T) {
	d := NewDelay(10*units.Millisecond, 50*units.Millisecond)
	h := newHead(2)
	j := mkJob(1, core.Interactive, 1, 1, 1, 512*units.MB)
	as := d.Schedule(0, []*core.Job{j}, h)
	if len(as) != 1 {
		t.Fatalf("uncached task deferred: %v", as)
	}
}

func TestDelayReplicaCrashMidWaitFallsBackGreedy(t *testing.T) {
	d := NewDelay(10*units.Millisecond, 50*units.Millisecond)
	h := newHead(3)
	j := mkJob(1, core.Interactive, 1, 1, 1, 512*units.MB)
	j.Issued = 0
	// The only replica lives on node 2, busy beyond the wait bound: the task
	// defers, holding out for that copy.
	h.Caches[2].Insert(j.Tasks[0].Chunk, j.Tasks[0].Size)
	h.Available[2] = units.Time(10 * units.Second)
	if as := d.Schedule(0, []*core.Job{j}, h); len(as) != 0 {
		t.Fatalf("assigned %v, want deferral while the replica's queue drains", as)
	}
	// Mid-wait, the only candidate crashes: its predicted cache is forgotten,
	// so the next cycle takes the "no replica anywhere" branch and assigns
	// greedily instead of waiting out a bound that can no longer pay off.
	h.MarkFailed(2)
	as := d.Schedule(units.Time(20*units.Millisecond), []*core.Job{j}, h)
	if len(as) != 1 {
		t.Fatalf("assigned %v after replica crash, want immediate greedy fallback", as)
	}
	if as[0].Node == 2 {
		t.Fatalf("fell back onto the dead node 2")
	}
}

func TestDelayAllNodesDeadThenRepair(t *testing.T) {
	d := NewDelay(10*units.Millisecond, 50*units.Millisecond)
	h := newHead(2)
	j := mkJob(1, core.Interactive, 1, 1, 1, 512*units.MB)
	j.Issued = 0
	// The sole replica holder crashes, then the remaining node does too: the
	// greedy fallback has no candidate and the task must stay queued rather
	// than be assigned to a corpse.
	h.Caches[1].Insert(j.Tasks[0].Chunk, j.Tasks[0].Size)
	h.Available[1] = units.Time(10 * units.Second)
	h.MarkFailed(1)
	h.MarkFailed(0)
	if as := d.Schedule(units.Time(20*units.Millisecond), []*core.Job{j}, h); len(as) != 0 {
		t.Fatalf("assigned %v with every node down", as)
	}
	if j.Tasks[0].Assigned() {
		t.Fatal("task marked assigned with every node down")
	}
	// A repair restores service; the task lands on the revived node, cold.
	h.MarkRepaired(0, units.Time(30*units.Millisecond))
	as := d.Schedule(units.Time(30*units.Millisecond), []*core.Job{j}, h)
	if len(as) != 1 || as[0].Node != 0 {
		t.Fatalf("assigned %v after repair, want node 0", as)
	}
}
