package service

import (
	"testing"
	"time"

	"vizsched/internal/autoscale"
	"vizsched/internal/core"
	"vizsched/internal/prefetch"
	"vizsched/internal/transport"
	"vizsched/internal/units"
)

// TestAutoscaleLiveDrainIsNeverACrash runs the elastic loop on the live
// service: after a burst of renders the fleet goes quiet, the policy drains
// a node, and the exit must look nothing like a failure — no down workers,
// no re-dispatches, no MTTR sample, no re-seeded chunks, no lost jobs. The
// drained slot then rejoins through the ordinary bring-up path without
// contributing an MTTR sample, because a voluntary exit never set downAt.
func TestAutoscaleLiveDrainIsNeverACrash(t *testing.T) {
	cat := testCatalog(t, 3)
	cl, err := StartClusterWith(core.NewLocalityScheduler(2*units.Millisecond), cat, 3, 64*units.MB,
		func(h *Head) {
			h.CheckInterval = 10 * time.Millisecond
			h.Prefetch = prefetch.DefaultConfig()
			h.Autoscale = &autoscale.Config{
				Interval: 20 * units.Millisecond,
				MinNodes: 1,
				HoldDown: 3,
				Cooldown: 3600 * units.Second, // one drain per test
				MaxDrain: 10 * units.Second,
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	client := cl.Connect()
	defer client.Close()

	for f := 0; f < 6; f++ {
		if _, err := client.Render(RenderBody{
			Dataset: "supernova", Angle: 0.1 * float64(f), Dist: 2.4,
			Width: 32, Height: 32,
		}); err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
	}

	// Quiet fleet: the policy should drain exactly one node.
	deadline := time.Now().Add(30 * time.Second)
	for cl.Head.Stats().Autoscale.DrainsCompleted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no drain completed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	st := cl.Head.Stats()
	if st.WorkersDown != 0 {
		t.Errorf("WorkersDown = %d after a drain, want 0", st.WorkersDown)
	}
	if st.TasksRedispatched != 0 {
		t.Errorf("TasksRedispatched = %d after a drain, want 0", st.TasksRedispatched)
	}
	if st.MTTRSeconds != 0 {
		t.Errorf("MTTRSeconds = %v after a drain, want 0", st.MTTRSeconds)
	}
	if st.ChunksReseeded != 0 {
		t.Errorf("ChunksReseeded = %d after a drain, want 0", st.ChunksReseeded)
	}
	if st.JobsFailed != 0 {
		t.Errorf("JobsFailed = %d, want 0", st.JobsFailed)
	}
	victim := core.NodeID(-1)
	for k := 0; k < 3; k++ {
		if cl.Head.WorkerHealth(core.NodeID(k)) == core.HealthDown {
			if victim >= 0 {
				t.Fatalf("nodes %d and %d both retired; one drain should retire one node", victim, k)
			}
			victim = core.NodeID(k)
		}
	}
	if victim < 0 {
		t.Fatal("no node retired after the drain completed")
	}

	// The shrunken fleet still serves.
	if _, err := client.Render(RenderBody{
		Dataset: "plume", Dist: 2.4, Width: 32, Height: 32,
	}); err != nil {
		t.Fatalf("render on shrunken fleet: %v", err)
	}

	// Bring-up rides the ordinary rejoin path; a voluntary exit left no
	// downAt, so the rejoin must not produce an MTTR sample.
	if err := cl.RejoinWorker(victim); err != nil {
		t.Fatal(err)
	}
	waitHealth(t, cl.Head, victim, core.HealthUp)
	rec := cl.Head.Stats()
	if rec.WorkersRejoined != 1 {
		t.Errorf("WorkersRejoined = %d, want 1", rec.WorkersRejoined)
	}
	if rec.MTTRSeconds != 0 {
		t.Errorf("MTTR = %vs after drain + rejoin, want 0 (a drain is not a repair)", rec.MTTRSeconds)
	}
	if rec.WorkersDown != 0 {
		t.Errorf("WorkersDown = %d, want 0", rec.WorkersDown)
	}
}

// TestMultiHeadShardAwareRejoin closes the PR-8 gap: a worker that dies on
// shard 1 of a sharded plane redials the plane (not a specific head), and
// the shard index echoed from its registration ack routes the rejoin to the
// owning dispatcher. A hello naming a shard that does not exist is refused.
func TestMultiHeadShardAwareRejoin(t *testing.T) {
	cat := testCatalog(t, 2)
	mc, err := StartMultiCluster(2,
		func() core.Scheduler { return core.NewLocalityScheduler(2 * units.Millisecond) },
		cat, 4, 64*units.MB, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Stop()

	// Global worker 3 sits on shard 1, local slot 1. Its hello ack told it so.
	deadline := time.Now().Add(10 * time.Second)
	for mc.Worker(3).Shard() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("worker 3 shard = %d, want 1 from the hello ack", mc.Worker(3).Shard())
		}
		time.Sleep(2 * time.Millisecond)
	}

	mc.KillWorker(3)
	waitHealth(t, mc.MH.Shard(1), 1, core.HealthDown)

	if err := mc.RejoinWorker(3); err != nil {
		t.Fatal(err)
	}
	waitHealth(t, mc.MH.Shard(1), 1, core.HealthUp)
	if got := mc.MH.Shard(1).Stats().WorkersRejoined; got != 1 {
		t.Errorf("shard 1 rejoins = %d, want 1", got)
	}
	if got := mc.MH.Shard(0).Stats().WorkersRejoined; got != 0 {
		t.Errorf("shard 0 rejoins = %d, want 0 — rejoin landed on the wrong shard", got)
	}

	// A rejoin hello naming a shard outside the plane is refused.
	headSide, workerSide := transport.Pipe()
	go func() {
		_ = send(workerSide, transport.KindHello, 0,
			HelloBody{Name: "lost", MemQuota: int64(64 * units.MB), NodeID: 0, Rejoin: true, Shard: 5})
	}()
	if err := mc.MH.Rejoin(headSide); err == nil {
		t.Error("Rejoin accepted a hello naming shard 5 of 2")
	}
}
