package service

import (
	"fmt"
	"testing"
	"time"

	"vizsched/internal/autoscale"
	"vizsched/internal/core"
	"vizsched/internal/fracshare"
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
	if err := cl.RejoinWorker(int(victim)); err != nil {
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

// drainingHead is a stepped two-node head whose autoscaler drains at its
// first evaluation: replication 2 gives the victim home chunks to evacuate,
// prefetching gives the evacuation a governor, a drain band above any queue
// depth makes the first 100 ms sample drain pressure, and the busy-share
// account is on for step to hold it to the records.
func drainingHead(t *testing.T, deadlineFactor float64) *steppedHead {
	return newSteppedHead(t, 2, func(h *Head) {
		h.Replicas = 2
		h.Prefetch = prefetch.DefaultConfig()
		h.FracShare = &fracshare.Config{Slots: 2}
		h.DeadlineFactor = deadlineFactor
		h.MinDeadline = time.Minute // past MaxDrain: a drain ends before a deadline
		h.SuspectAfter, h.DownAfter = 0, 0
		h.Autoscale = &autoscale.Config{
			Interval:  100 * units.Millisecond,
			MinNodes:  1,
			QueueHigh: 1e9,
			QueueLow:  1e9 - 1,
			HoldDown:  1,
			Cooldown:  3600 * units.Second,
			MaxDrain:  10 * units.Second,
		}
	})
}

// busyOnBoth leaves each node of a drainingHead owing one batch brick (job 2)
// and one interactive brick (job 3), after an interactive frame (job 1) has
// come and gone.
func busyOnBoth(s *steppedHead) (batch, frame *liveJob) {
	s.t.Helper()
	a := s.submit(1, RenderBody{Dataset: "plume", Dist: 2.4, Width: 16, Height: 16})
	s.wantTasks(0, 1)
	s.wantTasks(1, 1)
	s.at(10 * time.Millisecond)
	s.frags(a, 0, 1)
	batch = s.submit(2, RenderBody{Dataset: "supernova", Dist: 2.4, Width: 16, Height: 16, Batch: true})
	s.step(event{kind: evTick})
	s.at(20 * time.Millisecond)
	frame = s.submit(3, RenderBody{Dataset: "plume", Angle: 0.5, Dist: 2.4, Width: 16, Height: 16})
	s.step(event{kind: evTick})
	for k := core.NodeID(0); k < 2; k++ {
		if got := s.wantTasks(k, 2); got[0].JobID != 2 || got[1].JobID != 3 {
			s.t.Fatalf("node %d was sent %+v, want a brick of job 2 then of job 3", k, got)
		}
	}
	return batch, frame
}

// prefetchDone steps node's report that chunk of dataset landed.
func (s *steppedHead) prefetchDone(node core.NodeID, dataset string, chunk int) {
	s.t.Helper()
	s.fromWorker(node, transport.KindPrefetchDone, &PrefetchDoneBody{Dataset: dataset, Chunk: chunk, Loaded: true})
}

// wantShutdown reads node's connection up to a Shutdown, which must come.
func (s *steppedHead) wantShutdown(node core.NodeID) {
	s.t.Helper()
	for {
		msg, err := s.peers[node].Recv()
		if err != nil {
			s.t.Fatalf("node %d: connection ended without a Shutdown: %v", node, err)
		}
		if msg.Kind == transport.KindShutdown {
			return
		}
	}
}

// The live drain, step by step: with both nodes busy the higher ID is the
// victim; only its batch brick is stolen back (to the survivor), its
// interactive brick is left to finish; its home chunks are warmed onto the
// survivor one at a time; once it owes nothing and both warms have landed,
// it is re-homed, journaled and shut down cleanly — and neither the drain
// nor a later rejoin of the slot is counted as a crash.
func TestHeadLoopAutoscaleDrain(t *testing.T) {
	s := drainingHead(t, 0)
	batch, frame := busyOnBoth(s)

	s.at(100 * time.Millisecond)
	s.step(event{kind: evCheck})
	if got := s.h.WorkerHealth(1); got != core.HealthDraining {
		t.Fatalf("node 1 after the first evaluation: %v, want draining", got)
	}
	if got := s.h.WorkerHealth(0); got != core.HealthUp {
		t.Fatalf("node 0 after the first evaluation: %v, want up", got)
	}
	if pb := recvBody[PrefetchBody](s, s.peers[0], transport.KindPrefetch); pb != (PrefetchBody{Dataset: "supernova", Chunk: 1}) {
		t.Errorf("evacuation warm %+v, want supernova brick 1 on the survivor", pb)
	}
	if got := s.wantTasks(0, 1); got[0] != (TaskRef{JobID: uint64(batch.job.ID), TaskIndex: 1}) {
		t.Errorf("survivor was sent %+v, want the victim's batch brick", got[0])
	}
	if frame.tasks[1].node != 1 || batch.tasks[1].node != 0 {
		t.Errorf("after the drain began: frame brick on node %d, batch brick on node %d; want 1 and 0", frame.tasks[1].node, batch.tasks[1].node)
	}
	if a := s.h.Stats().Autoscale; a.Drains != 1 || a.TasksMigrated != 1 || a.OrphanWarms != 1 || a.DrainingWorkers != 1 {
		t.Errorf("after the drain began: %+v; want 1 drain, 1 task migrated, 1 orphan warm, 1 draining worker", *a)
	}

	// Everything comes back; the first warm lands and the second goes out.
	s.at(150 * time.Millisecond)
	s.frags(frame, 0, 1)
	s.frags(batch, 0, 1)
	s.prefetchDone(0, "supernova", 1)
	s.at(200 * time.Millisecond)
	s.step(event{kind: evCheck})
	if pb := recvBody[PrefetchBody](s, s.peers[0], transport.KindPrefetch); pb != (PrefetchBody{Dataset: "plume", Chunk: 1}) {
		t.Errorf("second evacuation warm %+v, want plume brick 1 on the survivor", pb)
	}
	if got := s.h.WorkerHealth(1); got != core.HealthDraining {
		t.Fatalf("node 1 with a warm still out: %v, want draining", got)
	}

	// The second warm lands: the next check retires the victim.
	s.prefetchDone(0, "plume", 1)
	s.at(300 * time.Millisecond)
	s.step(event{kind: evCheck})
	if got := s.h.WorkerHealth(1); got != core.HealthDown {
		t.Fatalf("node 1 after its drain: %v, want down", got)
	}
	s.wantShutdown(1)
	st := s.h.Stats()
	if a := st.Autoscale; a.DrainsCompleted != 1 || a.DrainRehomed != 2 || a.DrainOrphaned != 0 || a.OrphanWarms != 2 || a.TasksMigrated != 1 || a.DesiredWorkers != 1 {
		t.Errorf("after the drain: %+v; want 1 completed, 2 re-homed, 0 orphaned, 2 orphan warms, 1 migrated, 1 desired", *a)
	}
	if st.WorkersDown != 0 || st.TasksRedispatched != 0 || st.ChunksReseeded != 0 || st.MTTRSeconds != 0 {
		t.Errorf("a drain counted as a crash: down %d, re-dispatched %d, re-seeded %d, MTTR %vs",
			st.WorkersDown, st.TasksRedispatched, st.ChunksReseeded, st.MTTRSeconds)
	}

	// The slot rejoins a second later: a repair, but no MTTR sample.
	s.at(1300 * time.Millisecond)
	headSide, workerSide := transport.Pipe()
	s.step(event{kind: evRejoin, rejoin: rejoinEvent{conn: headSide, hello: HelloBody{Name: "w1", NodeID: 1, Rejoin: true}}})
	if ack := recvBody[HelloBody](s, workerSide, transport.KindHello); ack.NodeID != 1 {
		t.Errorf("rejoin ack names node %d, want 1", ack.NodeID)
	}
	s.peers[1] = workerSide
	if r := s.h.Stats(); r.WorkersRejoined != 1 || r.MTTRSeconds != 0 || r.WorkersDown != 0 {
		t.Errorf("after the rejoin: rejoined %d, MTTR %vs, down %d; want 1, 0, 0", r.WorkersRejoined, r.MTTRSeconds, r.WorkersDown)
	}
	// Its bring-up window opens with a warm at once, not a check tick later.
	pb := recvBody[PrefetchBody](s, workerSide, transport.KindPrefetch)
	if a := s.h.Stats().Autoscale; a.BringupWarms != 1 {
		t.Errorf("bring-up warms at the rejoin: %d (warm %+v), want 1", a.BringupWarms, pb)
	}

	s.wantJournal(
		"admit 1 -1 -1 0s",
		"dispatch 1 0 0 0s",
		"dispatch 1 1 1 0s",
		"complete 1 0 0 10ms",
		"complete 1 1 1 10ms",
		"admit 2 -1 -1 10ms",
		"dispatch 2 0 0 10ms",
		"dispatch 2 1 1 10ms",
		"admit 3 -1 -1 20ms",
		"dispatch 3 0 0 20ms",
		"dispatch 3 1 1 20ms",
		"dispatch 2 1 0 100ms", // the victim's batch brick, stolen back
		"complete 3 0 0 150ms",
		"complete 3 1 1 150ms",
		"complete 2 0 0 150ms",
		"complete 2 1 0 150ms",
		"prefetch 0 -1 0 150ms",
		"prefetch 0 -1 0 200ms",
		"rehome 0 -1 1 300ms",
		"repair 0 -1 1 1.3s",
	)
}

// A drain that runs out its MaxDrain hands back what the victim still owes:
// here the brick of an interactive frame whose fragment never comes. The
// check that retires the victim sends it to the survivor as a migration, the
// frame is answered, and — with or without the deadline scan — nothing is
// counted as a crash redispatch.
func TestHeadLoopAutoscaleDrainExpiryMigratesOwedTasks(t *testing.T) {
	for _, factor := range []float64{0, 4} {
		t.Run(fmt.Sprintf("DeadlineFactor=%v", factor), func(t *testing.T) {
			s := drainingHead(t, factor)
			frame := s.submit(1, RenderBody{Dataset: "plume", Dist: 2.4, Width: 16, Height: 16})
			s.wantTasks(0, 1)
			s.wantTasks(1, 1)
			s.at(100 * time.Millisecond)
			s.step(event{kind: evCheck})
			if got := s.h.WorkerHealth(1); got != core.HealthDraining {
				t.Fatalf("node 1 after the first evaluation: %v, want draining", got)
			}
			recvBody[PrefetchBody](s, s.peers[0], transport.KindPrefetch) // its home brick, evacuating
			s.at(110 * time.Millisecond)
			s.frags(frame, 0)

			// Node 1 never answers. The check at MaxDrain retires it anyway.
			s.at(10100 * time.Millisecond)
			s.step(event{kind: evCheck})
			if got := s.h.WorkerHealth(1); got != core.HealthDown {
				t.Fatalf("node 1 at MaxDrain: %v, want down", got)
			}
			s.wantShutdown(1)
			if a := s.h.Stats().Autoscale; a.DrainsCompleted != 1 || a.TasksMigrated != 1 {
				t.Fatalf("at MaxDrain: %d drains completed, %d tasks migrated; want 1 and 1 — the victim's brick is stranded",
					a.DrainsCompleted, a.TasksMigrated)
			}
			if got := s.wantTasks(0, 1); got[0] != (TaskRef{JobID: uint64(frame.job.ID), TaskIndex: 1}) {
				t.Fatalf("survivor was sent %+v, want the victim's brick", got[0])
			}
			s.at(10200 * time.Millisecond)
			s.frags(frame, 1)
			recvBody[ResultBody](s, s.client, transport.KindResult)

			// Past the deadline the stolen brick would have had: no redispatch.
			for at := 20 * time.Second; at <= 2*time.Minute; at += 20 * time.Second {
				s.at(at)
				s.step(event{kind: evCheck})
			}
			if st := s.h.Stats(); st.TasksRedispatched != 0 || st.WorkersDown != 0 || len(s.l.inflight) != 0 {
				t.Errorf("after the drain: %d re-dispatched, %d down, %d jobs in flight; want 0, 0, 0",
					st.TasksRedispatched, st.WorkersDown, len(s.l.inflight))
			}
		})
	}
}
