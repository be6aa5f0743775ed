package service

import (
	"bytes"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"vizsched/internal/core"
	"vizsched/internal/fracshare"
	"vizsched/internal/hastate"
	"vizsched/internal/journal"
	"vizsched/internal/transport"
	"vizsched/internal/units"
)

// journaled reports whether every task of a recovered job is journaled.
func journaled(rj *hastate.RecoveredJob) bool {
	return !slices.ContainsFunc(rj.Job.Tasks, func(t core.Task) bool { return t.State != core.TaskJournaled })
}

// quietHead silences a head's diagnostics for tests.
func quietHead(h *Head) { h.Logf = func(string, ...any) {} }

// TestHeadFailoverJournalRecovery is the §5.10 tentpole end to end on the
// live service: a journaling head serves a burst of keyed jobs, a snapshot
// taken at genesis plus the journal replays to tables deep-equal to the
// running head's, the head crashes abruptly, a standby resumes from the
// replayed state, the workers resync onto it, and every client re-submission
// is served byte-identical to the original run without a single re-render.
func TestHeadFailoverJournalRecovery(t *testing.T) {
	cat := testCatalog(t, 3)
	model := core.DefaultCostModel()
	var logBuf bytes.Buffer
	cl, err := StartClusterWith(core.NewLocalityScheduler(2*units.Millisecond), cat, 2, 64*units.MB, func(h *Head) {
		h.Journal = journal.NewWriter(&logBuf, 1) // every record durable
		h.SuspectAfter = 5 * time.Second
		h.DownAfter = 20 * time.Second
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { cl.Stop() }()

	// Genesis snapshot before any job: the journal from here covers the
	// head's entire mutation history.
	genesis, err := cl.Head.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	client := cl.Connect()
	defer client.Close()
	const frames = 4
	reqs := make([]RenderBody, frames)
	pngs := make([][]byte, frames)
	for f := 0; f < frames; f++ {
		ds := "supernova"
		if f%2 == 1 {
			ds = "plume"
		}
		reqs[f] = RenderBody{
			Dataset: ds, Angle: 0.3 * float64(f), Dist: 2.4,
			Width: 32, Height: 32, Key: uint64(f + 1),
		}
		res, err := client.Render(reqs[f])
		if err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		pngs[f] = res.PNG
	}
	tasksBefore := cl.Worker(0).TasksExecuted() + cl.Worker(1).TasksExecuted()
	if tasksBefore != frames*3 {
		t.Fatalf("tasks executed = %d, want %d", tasksBefore, frames*3)
	}

	// The replayed tables must be deep-equal to the live head's, mutation
	// for mutation.
	liveSnap, err := cl.Head.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cl.Head.Crash()
	recs, err := journal.ReadAll(bytes.NewReader(logBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	st, err := hastate.Replay(genesis, recs, model)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !reflect.DeepEqual(st.Tables.Dump(), liveSnap.Tables) {
		t.Fatal("replayed tables differ from the crashed head's")
	}
	if len(st.Jobs) != frames {
		t.Fatalf("recovered jobs = %d, want %d", len(st.Jobs), frames)
	}
	for _, rj := range st.Jobs {
		if !journaled(rj) {
			t.Fatalf("job %d not fully done in recovered state", rj.Rec.ID)
		}
	}

	// Warm-standby takeover: fresh scheduler, replayed state, worker resync.
	standby := NewHead(core.NewLocalityScheduler(2*units.Millisecond), cat, 64*units.MB, model)
	quietHead(standby)
	var standbyLog bytes.Buffer
	standby.Journal = journal.NewWriter(&standbyLog, 1)
	standby.SuspectAfter = 5 * time.Second
	standby.DownAfter = 20 * time.Second
	if err := standby.StartRecovered(st); err != nil {
		t.Fatal(err)
	}
	if err := cl.ResyncTo(standby); err != nil {
		t.Fatal(err)
	}

	// Every re-submitted key must deliver the original bytes with zero
	// re-rendering: the workers' retained replays complete the recovered
	// jobs, and the client is served by re-attach or from the retained store.
	client2 := cl.Connect()
	defer client2.Close()
	for f := 0; f < frames; f++ {
		res, err := client2.Render(reqs[f])
		if err != nil {
			t.Fatalf("re-submitted frame %d: %v", f, err)
		}
		if !bytes.Equal(res.PNG, pngs[f]) {
			t.Errorf("re-submitted frame %d PNG differs from the original", f)
		}
	}
	if got := cl.Worker(0).TasksExecuted() + cl.Worker(1).TasksExecuted(); got != tasksBefore {
		t.Errorf("tasks executed rose %d -> %d across failover: work was re-rendered", tasksBefore, got)
	}
	rec := standby.Stats()
	if rec.WorkersResynced != 2 {
		t.Errorf("workers resynced = %d, want 2", rec.WorkersResynced)
	}
	if rec.JobsFailed != 0 {
		t.Errorf("jobs lost = %d, want 0", rec.JobsFailed)
	}
	if rec.JobsReattached+rec.RetainedServed != frames {
		t.Errorf("reattached+retained = %d+%d, want %d total",
			rec.JobsReattached, rec.RetainedServed, frames)
	}
}

// gateConn swallows worker→head completion traffic on command: the
// completed-but-unacked window a resync epoch must reconcile.
type gateConn struct {
	transport.Conn
	mu      sync.Mutex
	swallow bool
}

func (g *gateConn) setSwallow(v bool) {
	g.mu.Lock()
	g.swallow = v
	g.mu.Unlock()
}

func (g *gateConn) Send(m transport.Message) error {
	g.mu.Lock()
	sw := g.swallow
	g.mu.Unlock()
	if sw && m.Kind == transport.KindFragment {
		return nil
	}
	return g.Conn.Send(m)
}

// TestResyncEpochReconcilesUnackedCompletion drives the idempotent-recovery
// guarantee: a worker completes its tasks but the reports never reach the
// head (lost acks), the head crashes, and the recovered standby's resync
// epoch reconciles the work through the worker's retained replay — the job
// delivers with zero re-renders.
func TestResyncEpochReconcilesUnackedCompletion(t *testing.T) {
	cat := testCatalog(t, 2)
	model := core.DefaultCostModel()
	var logBuf bytes.Buffer
	head := NewHead(core.NewLocalityScheduler(2*units.Millisecond), cat, 64*units.MB, model)
	quietHead(head)
	head.Journal = journal.NewWriter(&logBuf, 1)
	head.MinDeadline = 30 * time.Second // no re-dispatch before the crash
	head.SuspectAfter = 10 * time.Second
	head.DownAfter = 30 * time.Second

	w := NewWorker("w0", cat, 64*units.MB)
	w.Logf = head.Logf
	headSide, workerSide := transport.Pipe()
	gate := &gateConn{Conn: workerSide}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = w.Serve(gate)
	}()
	if err := head.AddWorker(headSide); err != nil {
		t.Fatal(err)
	}
	if err := head.Start(); err != nil {
		t.Fatal(err)
	}
	genesis, err := head.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	clientSide, headClientSide := transport.Pipe()
	go head.HandleClient(headClientSide)
	client := NewClient(clientSide)
	defer client.Close()

	gate.setSwallow(true)
	req := RenderBody{Dataset: "supernova", Dist: 2.4, Width: 32, Height: 32, Key: 77}
	if _, err := client.RenderAsync(req); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for w.TasksExecuted() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("worker executed %d tasks, want 2", w.TasksExecuted())
		}
		time.Sleep(2 * time.Millisecond)
	}
	head.Crash()
	<-serveDone

	recs, err := journal.ReadAll(bytes.NewReader(logBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	st, err := hastate.Replay(genesis, recs, model)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(st.Jobs) != 1 || journaled(st.Jobs[0]) {
		t.Fatalf("recovered state: %d jobs, done=%v; want 1 in-flight job",
			len(st.Jobs), len(st.Jobs) == 1 && journaled(st.Jobs[0]))
	}

	standby := NewHead(core.NewLocalityScheduler(2*units.Millisecond), cat, 64*units.MB, model)
	quietHead(standby)
	standby.MinDeadline = 30 * time.Second
	standby.SuspectAfter = 10 * time.Second
	standby.DownAfter = 30 * time.Second
	if err := standby.StartRecovered(st); err != nil {
		t.Fatal(err)
	}
	defer standby.Stop()

	gate.setSwallow(false)
	headSide2, workerSide2 := transport.Pipe()
	resyncDone := make(chan struct{})
	go func() {
		defer close(resyncDone)
		_ = w.Resync(workerSide2, 0)
	}()
	if err := standby.Rejoin(headSide2); err != nil {
		t.Fatal(err)
	}

	// The retained replay must complete the job with no new renders.
	deadline = time.Now().Add(20 * time.Second)
	for standby.Stats().JobsCompleted < 1 {
		if time.Now().After(deadline) {
			t.Fatal("recovered job never completed from retained replay")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := w.TasksExecuted(); got != 2 {
		t.Errorf("tasks executed = %d after recovery, want 2 (no re-render)", got)
	}

	// The client's re-submission of the same key is served from the
	// retained-result store.
	clientSide2, headClientSide2 := transport.Pipe()
	go standby.HandleClient(headClientSide2)
	client2 := NewClient(clientSide2)
	defer client2.Close()
	res, err := client2.Render(req)
	if err != nil {
		t.Fatalf("re-submission: %v", err)
	}
	if res.Image == nil {
		t.Fatal("re-submission returned no image")
	}
	if got := standby.Stats().RetainedServed; got != 1 {
		t.Errorf("retained served = %d, want 1", got)
	}
	if got := w.TasksExecuted(); got != 2 {
		t.Errorf("tasks executed = %d after re-submission, want 2", got)
	}
	standby.Stop()
	<-resyncDone
}

// TestNetChaosIdempotentDuplicates runs the service under duplicate-heavy
// network chaos on the worker→head direction: every fragment may arrive
// twice, yet completion accounting stays exact and the delivered PNGs are
// byte-identical to a chaos-free run.
func TestNetChaosIdempotentDuplicates(t *testing.T) {
	t.Run("fullframe", func(t *testing.T) {
		cat := testCatalog(t, 3)
		render := func(chaos bool) ([][]byte, *Head, *transport.FaultInjector) {
			head := NewHead(core.NewLocalityScheduler(2*units.Millisecond), cat, 64*units.MB, core.DefaultCostModel())
			quietHead(head)
			var inj *transport.FaultInjector
			if chaos {
				inj = transport.NewFaultInjector(transport.FaultConfig{Seed: 42, Duplicate: 0.5})
			}
			for i := 0; i < 2; i++ {
				w := NewWorker("w", cat, 64*units.MB)
				w.Logf = head.Logf
				headSide, workerSide := transport.Pipe()
				up := transport.Conn(workerSide)
				if inj != nil {
					up = inj.Wrap(up)
				}
				go func() { _ = w.Serve(up) }()
				if err := head.AddWorker(headSide); err != nil {
					t.Fatal(err)
				}
			}
			if err := head.Start(); err != nil {
				t.Fatal(err)
			}
			clientSide, headClientSide := transport.Pipe()
			go head.HandleClient(headClientSide)
			client := NewClient(clientSide)
			defer client.Close()
			const frames = 4
			pngs := make([][]byte, frames)
			for f := 0; f < frames; f++ {
				res, err := client.Render(RenderBody{
					Dataset: "supernova", Angle: 0.25 * float64(f), Dist: 2.4,
					Width: 32, Height: 32,
				})
				if err != nil {
					t.Fatalf("frame %d: %v", f, err)
				}
				pngs[f] = res.PNG
			}
			return pngs, head, inj
		}

		clean, cleanHead, _ := render(false)
		cleanHead.Stop()
		chaotic, chaosHead, inj := render(true)
		defer chaosHead.Stop()

		for f := range clean {
			if !bytes.Equal(clean[f], chaotic[f]) {
				t.Errorf("frame %d PNG differs under duplication chaos", f)
			}
		}
		if inj.Stats().Duplicated == 0 {
			t.Fatal("the injector never duplicated anything; the test is vacuous")
		}
		s := chaosHead.Stats()
		if s.JobsCompleted != 4 {
			t.Errorf("jobs completed = %d, want 4", s.JobsCompleted)
		}
		// Exactly one accounting event per task: duplicates must not
		// double-count cache stats.
		if total := s.ChunkHits + s.ChunkMisses; total != 4*3 {
			t.Errorf("hits+misses = %d, want %d", total, 4*3)
		}
	})
}

// TestNetChaosPartitionSuspectHeals drives the transport-level partition
// switch: black-holed heartbeats demote the worker to suspect (no new work),
// healing before DownAfter rehabilitates it on the next beacon, and service
// resumes with nothing lost.
func TestNetChaosPartitionSuspectHeals(t *testing.T) {
	cat := testCatalog(t, 2)
	head := NewHead(core.NewLocalityScheduler(2*units.Millisecond), cat, 64*units.MB, core.DefaultCostModel())
	quietHead(head)
	head.CheckInterval = 5 * time.Millisecond
	head.SuspectAfter = 40 * time.Millisecond
	head.DownAfter = 30 * time.Second

	inj := transport.NewFaultInjector(transport.FaultConfig{Seed: 7})
	w := NewWorker("w0", cat, 64*units.MB)
	w.Logf = head.Logf
	w.Heartbeat = 10 * time.Millisecond
	headSide, workerSide := transport.Pipe()
	go func() { _ = w.Serve(inj.Wrap(workerSide)) }()
	if err := head.AddWorker(inj.Wrap(headSide)); err != nil {
		t.Fatal(err)
	}
	if err := head.Start(); err != nil {
		t.Fatal(err)
	}
	defer head.Stop()

	clientSide, headClientSide := transport.Pipe()
	go head.HandleClient(headClientSide)
	client := NewClient(clientSide)
	defer client.Close()

	if _, err := client.Render(RenderBody{Dataset: "plume", Dist: 2.4, Width: 24, Height: 24}); err != nil {
		t.Fatalf("pre-partition render: %v", err)
	}
	inj.Partition()
	waitHealth(t, head, 0, core.HealthSuspect)
	inj.Heal()
	waitHealth(t, head, 0, core.HealthUp)
	if _, err := client.Render(RenderBody{Dataset: "plume", Angle: 0.4, Dist: 2.4, Width: 24, Height: 24}); err != nil {
		t.Fatalf("post-heal render: %v", err)
	}
	if got := inj.Stats().Partitioned; got == 0 {
		t.Error("the partition never black-holed anything; the test is vacuous")
	}
	if got := head.Stats().WorkersDown; got != 0 {
		t.Errorf("workers down = %d, want 0 (partition healed before DownAfter)", got)
	}
	if got := head.Stats().JobsFailed; got != 0 {
		t.Errorf("jobs lost = %d, want 0", got)
	}
}

// TestFailoverServeLoopResyncsToStandby exercises the worker's reconnect
// loop end to end: a serving worker loses its head mid-session, ServeLoop
// redials with backoff, the dial lands on a recovered standby, the resync
// epoch restores the slot, and a clean Stop ends the loop with nil.
func TestFailoverServeLoopResyncsToStandby(t *testing.T) {
	cat := testCatalog(t, 2)
	model := core.DefaultCostModel()
	var logBuf bytes.Buffer
	head := NewHead(core.NewLocalityScheduler(2*units.Millisecond), cat, 64*units.MB, model)
	quietHead(head)
	head.Journal = journal.NewWriter(&logBuf, 1)

	w := NewWorker("w0", cat, 64*units.MB)
	w.Logf = head.Logf
	headSide, workerSide := transport.Pipe()
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = w.Serve(workerSide)
	}()
	if err := head.AddWorker(headSide); err != nil {
		t.Fatal(err)
	}
	if err := head.Start(); err != nil {
		t.Fatal(err)
	}
	genesis, err := head.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	clientSide, headClientSide := transport.Pipe()
	go head.HandleClient(headClientSide)
	client := NewClient(clientSide)
	if _, err := client.Render(RenderBody{Dataset: "plume", Dist: 2.4, Width: 24, Height: 24}); err != nil {
		t.Fatal(err)
	}
	client.Close()
	head.Crash()
	<-serveDone

	recs, err := journal.ReadAll(bytes.NewReader(logBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	st, err := hastate.Replay(genesis, recs, model)
	if err != nil {
		t.Fatal(err)
	}
	standby := NewHead(core.NewLocalityScheduler(2*units.Millisecond), cat, 64*units.MB, model)
	quietHead(standby)
	standby.FracShare = &fracshare.Config{Slots: 3}
	if err := standby.StartRecovered(st); err != nil {
		t.Fatal(err)
	}

	// The loop's dial lands every attempt on the standby's rejoin endpoint.
	dial := func() (transport.Conn, error) {
		hs, ws := transport.Pipe()
		go func() { _ = standby.Rejoin(hs) }()
		return ws, nil
	}
	loopDone := make(chan error, 1)
	go func() {
		loopDone <- w.ServeLoop(dial, ReconnectConfig{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond, Retries: 8, Seed: 1})
	}()
	waitHealth(t, standby, 0, core.HealthUp)

	client2Side, headClient2Side := transport.Pipe()
	go standby.HandleClient(headClient2Side)
	client2 := NewClient(client2Side)
	defer client2.Close()
	if _, err := client2.Render(RenderBody{Dataset: "plume", Angle: 0.3, Dist: 2.4, Width: 24, Height: 24}); err != nil {
		t.Fatalf("render via resynced ServeLoop worker: %v", err)
	}
	// The rejoin ack told the worker to run 3 executors a lane; the head
	// that said so keeps the busy-share account for them.
	if fs := standby.Stats().FracShare; fs == nil || fs.Slots != 3 {
		t.Errorf("recovered head's FracShare snapshot = %+v, want Slots 3", fs)
	}
	standby.Stop()
	select {
	case err := <-loopDone:
		if err != nil {
			t.Errorf("ServeLoop = %v, want nil after clean shutdown", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("ServeLoop did not exit after head Stop")
	}
	if got := standby.Stats().WorkersResynced; got < 1 {
		t.Errorf("workers resynced = %d, want >= 1", got)
	}
}

// TestFailoverServeLoopGivesUp: a dial that always fails exhausts the retry
// budget and reports it, rather than spinning forever.
func TestFailoverServeLoopGivesUp(t *testing.T) {
	cat := testCatalog(t, 2)
	w := NewWorker("w0", cat, 64*units.MB)
	w.Logf = func(string, ...any) {}
	dial := func() (transport.Conn, error) { return nil, transport.ErrClosed }
	err := w.ServeLoop(dial, ReconnectConfig{Base: time.Millisecond, Max: 2 * time.Millisecond, Retries: 3, Seed: 1})
	if err == nil {
		t.Fatal("ServeLoop returned nil for a dead endpoint")
	}
}

// A durable job record carries its request in a versioned layout. A record
// from before the wire-codec change (a gob stream), an empty one, and a
// current-version record with a damaged tail are all refused — by
// StartRecovered as a whole, before the head adopts any of the state —
// rather than adopted with a zero request.
func TestFailoverRefusesUnreadableRequestRecords(t *testing.T) {
	cat := testCatalog(t, 2)
	recovered := func(req []byte) *hastate.RecoveredJob {
		job := &core.Job{ID: 4, Tasks: make([]core.Task, 2), Remaining: 2}
		return &hastate.RecoveredJob{
			Rec: &hastate.JobRecord{ID: 4, Req: req, Tasks: make([]hastate.TaskInfo, 2)},
			Job: job,
		}
	}
	want := RenderBody{Dataset: "plume", Angle: 1.5, Dist: 2.4, Width: 48, Height: 32, Key: 99}
	good := want.AppendBody([]byte{reqVersion})
	for name, req := range map[string][]byte{
		"gob stream":   {0x3d, 0xff, 0x81, 0x03, 0x01, 0x01, 0x0a, 'R', 'e', 'n', 'd', 'e', 'r', 'B', 'o', 'd', 'y'},
		"empty":        nil,
		"damaged tail": good[:len(good)-3],
	} {
		head := NewHead(core.NewLocalityScheduler(2*units.Millisecond), cat, 64*units.MB, core.DefaultCostModel())
		quietHead(head)
		err := head.StartRecovered(&hastate.State{Jobs: []*hastate.RecoveredJob{recovered(req)}})
		if err == nil {
			head.Stop()
			t.Errorf("%s: StartRecovered adopted an unreadable request record", name)
		}
	}
	head := NewHead(core.NewLocalityScheduler(2*units.Millisecond), cat, 64*units.MB, core.DefaultCostModel())
	quietHead(head)
	lj, err := head.restoreJob(recovered(good))
	if err != nil {
		t.Fatal(err)
	}
	if lj.req != want {
		t.Errorf("restored request = %+v, want %+v", lj.req, want)
	}
}
