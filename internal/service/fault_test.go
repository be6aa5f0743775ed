package service

import (
	"strings"
	"sync"
	"testing"
	"time"

	"vizsched/internal/core"
	"vizsched/internal/hastate"
	"vizsched/internal/transport"
	"vizsched/internal/units"
)

// TestKillWorkerWithoutConnection: KillWorker on a slot with no connection
// to close — a recovered head's slot whose worker has not resynced, or a
// worker index outside a cluster of one or two shards — does nothing, and a
// cluster still renders afterwards.
func TestKillWorkerWithoutConnection(t *testing.T) {
	cat := testCatalog(t, 2)
	sched := func() core.Scheduler { return core.NewLocalityScheduler(2 * units.Millisecond) }
	cluster := func(shards, g int) func(t *testing.T) {
		return func(t *testing.T) {
			cl, err := StartMultiCluster(shards, sched, cat, 2, 64*units.MB, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Stop()
			cl.KillWorker(g)
			client := cl.Connect()
			defer client.Close()
			if _, err := client.Render(RenderBody{Dataset: "plume", Dist: 2.4, Width: 16, Height: 16}); err != nil {
				t.Fatalf("render after KillWorker(%d): %v", g, err)
			}
		}
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"recovered slot before resync", func(t *testing.T) {
			h := NewHead(sched(), cat, 64*units.MB, core.DefaultCostModel())
			quietHead(h)
			if err := h.StartRecovered(&hastate.State{Tables: core.NewHeadState(2, 64*units.MB, core.DefaultCostModel())}); err != nil {
				t.Fatal(err)
			}
			defer h.Stop()
			h.KillWorker(1)
		}},
		{"one shard, worker -1", cluster(1, -1)},
		{"one shard, worker past the end", cluster(1, 2)},
		{"two shards, worker -1", cluster(2, -1)},
		{"two shards, worker past the end", cluster(2, 2)},
	} {
		t.Run(tc.name, tc.run)
	}
}

// TestKillWorkerMidJobRejoin is the full §VI-D cycle on the live service: a
// worker is killed while a burst of frames has fragments in flight, every
// job still completes via requeue on the survivors, the worker rejoins its
// old slot, receives new work, and the recovery report shows a repaired
// node (MTTR > 0) with no jobs lost.
func TestKillWorkerMidJobRejoin(t *testing.T) {
	cat := testCatalog(t, 3)
	cl, err := StartCluster(core.NewLocalityScheduler(2*units.Millisecond), cat, 3, 64*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	client := cl.Connect()
	defer client.Close()

	// Launch a burst so fragments are in flight when the worker dies.
	const frames = 8
	outs := make([]<-chan Outcome, frames)
	for f := 0; f < frames; f++ {
		ch, err := client.RenderAsync(RenderBody{
			Dataset: "supernova", Angle: 0.1 * float64(f), Dist: 2.4,
			Width: 32, Height: 32,
		})
		if err != nil {
			t.Fatal(err)
		}
		outs[f] = ch
	}
	cl.Head.KillWorker(1)

	for f, ch := range outs {
		select {
		case out := <-ch:
			if out.Err != nil {
				t.Fatalf("frame %d failed: %v", f, out.Err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("frame %d hung after worker kill", f)
		}
	}
	waitHealth(t, cl.Head, 1, core.HealthDown)

	// Rejoin with a cold cache and verify the head routes work to it again.
	if err := cl.RejoinWorker(1); err != nil {
		t.Fatal(err)
	}
	waitHealth(t, cl.Head, 1, core.HealthUp)

	// Render until the rejoined worker has executed something. Its cache is
	// cold, so the first task it receives is a miss.
	deadline := time.Now().Add(20 * time.Second)
	for cl.workers[1].TasksExecuted() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("rejoined worker never received a task")
		}
		if _, err := client.Render(RenderBody{
			Dataset: "plume", Dist: 2.4, Width: 32, Height: 32,
		}); err != nil {
			t.Fatal(err)
		}
	}

	rec := cl.Head.Stats()
	if rec.WorkersDown != 1 || rec.WorkersRejoined != 1 {
		t.Errorf("down/rejoined = %d/%d, want 1/1", rec.WorkersDown, rec.WorkersRejoined)
	}
	if rec.MTTRSeconds <= 0 {
		t.Errorf("MTTR = %vs, want > 0", rec.MTTRSeconds)
	}
	if rec.JobsFailed != 0 {
		t.Errorf("jobs lost = %d, want 0", rec.JobsFailed)
	}
}

// waitHealth polls the head's atomic health mirror for a state.
func waitHealth(t *testing.T, h *Head, k core.NodeID, want core.Health) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for h.WorkerHealth(k) != want {
		if time.Now().After(deadline) {
			t.Fatalf("node %d health = %v, want %v", k, h.WorkerHealth(k), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// blackHoleWorker handshakes like a worker but swallows every task without
// replying and never sends a heartbeat — the silent-but-connected failure
// mode deadlines exist for.
func blackHoleWorker(conn transport.Conn) {
	_ = send(conn, transport.KindHello, 0, HelloBody{Name: "blackhole", MemQuota: int64(64 * units.MB)})
	for {
		if _, err := conn.Recv(); err != nil {
			return
		}
	}
}

// TestDeadlineRedispatch drives a task into a silent worker: the missed
// heartbeats demote the node to suspect (so it gets no new work), the
// dispatch deadline declares the task lost, and after backoff it re-runs on
// the healthy worker. The render completes and the re-dispatch is counted.
func TestDeadlineRedispatch(t *testing.T) {
	cat := testCatalog(t, 4)
	head := NewHead(core.NewLocalityScheduler(2*units.Millisecond), cat, 64*units.MB, core.DefaultCostModel())
	head.Logf = func(string, ...any) {}
	head.MinDeadline = 100 * time.Millisecond
	head.DeadlineFactor = 2
	head.RetryBackoff = 5 * time.Millisecond
	head.CheckInterval = 10 * time.Millisecond
	head.SuspectAfter = 50 * time.Millisecond
	head.DownAfter = time.Minute // keep it connected: deadlines, not nodeDown, must recover

	// Worker 0 is real; worker 1 is the black hole.
	w := NewWorker("real", cat, 64*units.MB)
	w.Logf = head.Logf
	w.Heartbeat = 10 * time.Millisecond
	realHead, realWorker := transport.Pipe()
	go func() { _ = w.Serve(realWorker) }()
	if err := head.AddWorker(realHead); err != nil {
		t.Fatal(err)
	}
	bhHead, bhWorker := transport.Pipe()
	go blackHoleWorker(bhWorker)
	if err := head.AddWorker(bhHead); err != nil {
		t.Fatal(err)
	}
	if err := head.Start(); err != nil {
		t.Fatal(err)
	}
	defer head.Stop()

	clientSide, headSide := transport.Pipe()
	go head.HandleClient(headSide)
	client := NewClient(clientSide)
	defer client.Close()

	res, err := client.Render(RenderBody{
		Dataset: "supernova", Dist: 2.4, Width: 32, Height: 32,
	})
	if err != nil {
		t.Fatalf("render with a silent worker: %v", err)
	}
	if res.Image == nil {
		t.Fatal("no image")
	}
	rec := head.Stats()
	if rec.TasksRedispatched == 0 {
		t.Error("no deadline re-dispatch was recorded")
	}
	if rec.JobsFailed != 0 {
		t.Errorf("jobs lost = %d, want 0", rec.JobsFailed)
	}
	if got := head.WorkerHealth(1); got != core.HealthSuspect {
		t.Errorf("silent node health = %v, want suspect", got)
	}
}

// TestHeartbeatSuspectRejoinsOnTraffic exercises the up → suspect → up half
// of the state machine: a worker whose beacons stop is suspected, and any
// traffic from it rehabilitates it without a rejoin.
func TestHeartbeatSuspectRejoinsOnTraffic(t *testing.T) {
	cat := testCatalog(t, 2)
	head := NewHead(core.NewLocalityScheduler(2*units.Millisecond), cat, 64*units.MB, core.DefaultCostModel())
	head.Logf = func(string, ...any) {}
	head.CheckInterval = 5 * time.Millisecond
	head.SuspectAfter = 30 * time.Millisecond
	head.DownAfter = time.Minute

	// A hand-driven worker: hello, then heartbeats only when poked.
	hw, ww := transport.Pipe()
	if err := send(ww, transport.KindHello, 0, HelloBody{Name: "manual", MemQuota: int64(64 * units.MB)}); err != nil {
		t.Fatal(err)
	}
	go func() { // drain the head's sends (hello ack, tasks, shutdown)
		for {
			if _, err := ww.Recv(); err != nil {
				return
			}
		}
	}()
	if err := head.AddWorker(hw); err != nil {
		t.Fatal(err)
	}
	if err := head.Start(); err != nil {
		t.Fatal(err)
	}
	defer head.Stop()

	waitHealth(t, head, 0, core.HealthSuspect)
	if err := ww.Send(transport.Message{Kind: transport.KindHeartbeat}); err != nil {
		t.Fatal(err)
	}
	waitHealth(t, head, 0, core.HealthUp)
}

// TestOverloadShedFailsStaleInteractive drives the bounded queue: with
// MaxQueue = 1, a slow scheduler tick and the only node taken by the first
// frame of a burst, the frames behind it shed the oldest undispatched one
// (each shed request errors) while the newest still renders, and a batch
// job arriving at the bound is rejected outright.
func TestOverloadShedFailsStaleInteractive(t *testing.T) {
	cat := testCatalog(t, 2)
	head := NewHead(watched(200*units.Millisecond, true), cat, 64*units.MB, core.DefaultCostModel())
	head.Logf = func(string, ...any) {}
	head.MaxQueue = 1

	w := NewWorker("w0", cat, 64*units.MB)
	w.Logf = head.Logf
	hw, ww := transport.Pipe()
	go func() { _ = w.Serve(ww) }()
	if err := head.AddWorker(hw); err != nil {
		t.Fatal(err)
	}
	if err := head.Start(); err != nil {
		t.Fatal(err)
	}
	defer head.Stop()

	clientSide, headSide := transport.Pipe()
	go head.HandleClient(headSide)
	client := NewClient(clientSide)
	defer client.Close()

	var chans []<-chan Outcome
	for f := 0; f < 4; f++ {
		ch, err := client.RenderAsync(RenderBody{
			Dataset: "plume", Angle: 0.2 * float64(f), Dist: 2.4,
			Width: 24, Height: 24, Action: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	batchCh, err := client.RenderAsync(RenderBody{
		Dataset: "plume", Dist: 2.4, Width: 24, Height: 24, Batch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out := <-batchCh; out.Err == nil || !strings.Contains(out.Err.Error(), "overloaded") {
		t.Errorf("batch at full queue: err = %v, want overloaded rejection", out.Err)
	}

	var completed, shed int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for f, ch := range chans {
		f, ch := f, ch
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case out := <-ch:
				mu.Lock()
				defer mu.Unlock()
				if out.Err == nil {
					completed++
				} else if strings.Contains(out.Err.Error(), "shed") {
					shed++
				} else {
					t.Errorf("frame %d: unexpected error %v", f, out.Err)
				}
			case <-time.After(30 * time.Second):
				t.Errorf("frame %d hung", f)
			}
		}()
	}
	wg.Wait()
	if completed != 2 {
		t.Errorf("completed = %d, want 2: the frame that took the node and the newest", completed)
	}
	if shed != 2 {
		t.Errorf("shed = %d, want 2", shed)
	}
	if got := head.Stats().JobsShed; got != 3 { // 2 interactive + 1 batch
		t.Errorf("JobsShed = %d, want 3", got)
	}
}

// TestKeyedBatchRefusedThenRetried: a batch job refused at the queue bound
// must not keep its idempotency key. With one frame on the node and one
// queued (MaxQueue = 1), a keyed batch job is refused; the client's retry
// under the same key is a new job — refused again or rendered, but answered —
// not a re-attachment to the job that was never admitted.
func TestKeyedBatchRefusedThenRetried(t *testing.T) {
	cl, err := StartClusterWith(watched(hour, true), testCatalog(t, 2), 1, 64*units.MB, func(h *Head) { h.MaxQueue = 1 })
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	client := cl.Connect()
	defer client.Close()

	frame := RenderBody{Dataset: "plume", Dist: 2.4, Width: 16, Height: 16}
	for f := 0; f < 2; f++ { // the first takes the node, the second waits for the tick
		frame.Angle = 0.5 * float64(f)
		if _, err := client.RenderAsync(frame); err != nil {
			t.Fatal(err)
		}
	}
	batch := RenderBody{Dataset: "plume", Dist: 2.4, Width: 16, Height: 16, Batch: true, Key: 77}
	for _, try := range []string{"keyed batch at the bound", "its retry under the same key"} {
		ch, err := client.RenderAsync(batch)
		if err != nil {
			t.Fatal(err)
		}
		if out := within(t, ch, 3*time.Second, try); out.Err == nil || !strings.Contains(out.Err.Error(), "overloaded") {
			t.Errorf("%s: err = %v, want an overloaded refusal", try, out.Err)
		}
	}
	if s := cl.Head.Stats(); s.JobsReattached != 0 || s.JobsShed != 2 {
		t.Errorf("JobsReattached = %d, JobsShed = %d, want 0 and 2: a refused job has nothing to re-attach to", s.JobsReattached, s.JobsShed)
	}
}

// TestWorkerRejoinRejectedWhileUp: a rejoin hello for a live slot must be
// refused, not allowed to hijack the connection.
func TestWorkerRejoinRejectedWhileUp(t *testing.T) {
	cat := testCatalog(t, 2)
	cl, err := StartCluster(core.NewLocalityScheduler(2*units.Millisecond), cat, 2, 64*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	headSide, workerSide := transport.Pipe()
	go func() {
		_ = send(workerSide, transport.KindHello, 0,
			HelloBody{Name: "imposter", MemQuota: int64(64 * units.MB), NodeID: 1, Rejoin: true})
	}()
	if err := cl.Head.Rejoin(headSide); err != nil {
		t.Fatalf("Rejoin returned transport error: %v", err)
	}
	// The dispatcher must close the imposter's connection.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := workerSide.Recv(); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("imposter connection was not closed")
		}
	}
	if cl.Head.WorkerHealth(1) != core.HealthUp {
		t.Errorf("node 1 health = %v after rejected rejoin", cl.Head.WorkerHealth(1))
	}
}
