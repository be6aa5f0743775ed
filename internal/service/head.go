package service

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"log"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"vizsched/internal/autoscale"
	"vizsched/internal/compositing"
	"vizsched/internal/core"
	"vizsched/internal/fracshare"
	"vizsched/internal/hastate"
	"vizsched/internal/img"
	"vizsched/internal/journal"
	"vizsched/internal/prefetch"
	"vizsched/internal/qos"
	"vizsched/internal/shard"
	"vizsched/internal/transport"
	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// liveJob is one in-flight render: the scheduler-facing job plus everything
// needed to assemble and deliver the final image.
type liveJob struct {
	job   *core.Job
	req   RenderBody
	tasks []liveTask
	got   int // done tasks
	// reply delivers the outcome to the issuing client connection.
	conn  transport.Conn
	msgID uint64
	wall  time.Time
}

// taskState is where a task is in the live head's dispatch lifecycle
// (DESIGN.md §5.5); in every state but queued core.Task.Assigned is set.
type taskState uint8

const (
	taskQueued    taskState = iota // in the backlog, waiting for a pass
	taskSent                       // dispatched to node; due is its deadline
	taskHeld                       // missed its deadline; due ends its backoff hold
	taskJournaled                  // completion journaled before a takeover (§5.10); due is the deadline for its pixels
	taskDone                       // its fragment is in frag
)

// liveTask is the head's one record of a task of a liveJob.
type liveTask struct {
	frag  *FragmentBody
	node  core.NodeID // where it was dispatched last or, recovered, journaled
	state taskState
	// counts puts the record on node's busy-share account (§5.13), from its
	// dispatch by this head or its recovery as dispatched until it
	// completes, is requeued or leaves with its job. A journaled record
	// never counts, so a held one that does not count is journaled.
	counts  bool
	retries int // missed deadlines, across requeues; past MaxRetries the job fails
	due     time.Time
}

// workerEvent is anything a worker-reader goroutine feeds the dispatcher.
// gen stamps which incarnation of the node's connection produced it, so a
// stale reader's death cannot take down a rejoined worker.
type workerEvent struct {
	node core.NodeID
	gen  uint64
	msg  transport.Message
	err  error
}

// rejoinEvent asks the dispatcher to restore a down node's slot with a
// fresh connection.
type rejoinEvent struct {
	conn  transport.Conn
	hello HelloBody
}

// sender decouples the dispatcher from worker connections with an
// unbounded queue and a writer goroutine. Without it, the dispatcher could
// block sending a task to a worker whose fragment replies are themselves
// waiting on the dispatcher — a classic two-channel deadlock.
type sender struct {
	queue *fifo[transport.Message]
}

func newSender(conn transport.Conn, onErr func(error)) *sender {
	s := &sender{queue: newFifo[transport.Message]()}
	go func() {
		for {
			m, ok := s.queue.pop()
			if !ok {
				return
			}
			if err := conn.Send(m); err != nil {
				onErr(err)
				return
			}
		}
	}()
	return s
}

// Send enqueues without blocking the caller.
func (s *sender) Send(m transport.Message) error {
	if !s.queue.push(m) {
		return transport.ErrClosed
	}
	return nil
}

// Close stops the writer after the queue drains.
func (s *sender) Close() { s.queue.close() }

// workerSlot is the head's side of one worker node, dispatcher-owned after
// Start. conn is written under Head.mu because KillWorker reads it from other
// goroutines; health mirrors the state machine for race-free introspection.
type workerSlot struct {
	conn     transport.Conn
	send     *sender
	gen      uint64 // the connection's incarnation
	lastBeat time.Time
	downAt   time.Time
	health   atomic.Int32
}

// Head is the master node: it owns the job queue, the scheduler and its
// prediction tables, and the worker connections. One dispatcher goroutine
// owns all mutable state (headLoop, loop.go); listening goroutines feed it
// through channels — the listening/dispatching thread pair of the paper's
// design (§III-A).
type Head struct {
	sched    core.Scheduler
	state    *core.HeadState
	catalog  *Catalog
	model    core.CostModel
	memQuota units.Bytes

	// dsIDs/dsNames map between catalog names and scheduler dataset IDs.
	dsIDs   map[string]volume.DatasetID
	dsNames map[volume.DatasetID]string

	slots []workerSlot
	start time.Time

	jobCh    chan *liveJob
	workCh   chan workerEvent
	rejoinCh chan rejoinEvent
	stopCh   chan struct{}
	doneCh   chan struct{}
	started  bool

	mu        sync.Mutex
	nextJobID core.JobID

	stats headStats
	rng   *rand.Rand
	clock func() time.Time // the wall clock, except in tests that drive step

	// DropStale, when set before Start, supersedes queued-but-undispatched
	// interactive frames when a newer frame of the same action arrives —
	// what a real viewer wants under lag: the latest view, not every view.
	// The superseded request receives an error reply.
	DropStale bool

	// MaxQueue, when positive, bounds the jobs waiting with tasks left to
	// dispatch, the QoS fair queue's included (core.Backlog.Admit). At the
	// bound an arriving batch job is refused and an arriving interactive
	// frame sheds the oldest undispatched frame — a batch burst can delay
	// batch work but can never wedge interactive service.
	MaxQueue int

	// QoS, when set before Start, enables the multi-tenant admission and
	// fairness layer (§5.7) as the backlog's gate (core.Gate): per-tenant
	// token buckets decide admit/throttle/reject at arrival, a
	// deficit-round-robin fair queue orders what each pass releases, and an
	// SLO-driven degradation ladder sheds load under sustained overload. Nil
	// keeps the original single-queue behaviour exactly. When QoS is
	// active, DropStale folds into the controller (AlwaysShedStale), and
	// MaxQueue counts the fair queue and the backlog together.
	QoS  *qos.Config
	qosc *qos.Controller

	// Prefetch, when set before Start, enables the predictive chunk-warming
	// layer (§5.8): a Markov/frequency predictor trained on the fragment
	// completion stream plans warms into the scheduler's idle windows, a
	// token-bucket governor bounds warming bandwidth per worker, and warmed
	// bricks enter worker caches at the cold end. Requires a scheduler that
	// implements core.PrefetchSetter (OURS); inert otherwise. Nil keeps the
	// demand-only behaviour exactly.
	Prefetch *prefetch.Config
	prefc    *prefetch.Controller

	// DeadlineFactor is k in the dispatch-deadline rule: a task overdue by
	// k× its predicted execution time (floored at MinDeadline) is presumed
	// lost and re-dispatched. Non-positive disables deadlines.
	DeadlineFactor float64
	// MinDeadline floors every task deadline; predictions for tiny cached
	// tasks would otherwise expire on scheduler-queue latency alone.
	MinDeadline time.Duration
	// MaxRetries bounds deadline-triggered re-dispatches per task; past it
	// the job is failed back to the client.
	MaxRetries int
	// RetryBackoff is the base of the exponential backoff (with jitter)
	// between a missed deadline and the task's re-entry into the queue.
	RetryBackoff time.Duration
	// CheckInterval is how often the dispatcher scans deadlines and
	// heartbeat freshness.
	CheckInterval time.Duration
	// SuspectAfter and DownAfter drive the up → suspect → down health state
	// machine: a worker silent for SuspectAfter receives no new work; silent
	// for DownAfter it is declared dead, its connection closed, and its
	// in-flight tasks requeued.
	SuspectAfter time.Duration
	DownAfter    time.Duration

	// Journal, when set before Start (or StartRecovered), receives one
	// record per dispatch-state mutation — the write-ahead log §5.10's
	// failover replays on top of the last Snapshot. Dispatcher-owned after
	// Start; the writer's BatchSize trades fsync cost against the records a
	// crash may lose. Nil disables journaling exactly.
	Journal *journal.Writer

	// Failover machinery (§5.10). byKey is the idempotency-key index over
	// in-flight jobs and retained/retainedOrder hold delivered results for
	// client re-attach; all three are mu-guarded so finalize can atomically
	// move a key from byKey to retained while the dispatcher admits — a
	// re-submission always sees exactly one of the two and never re-renders.
	byKey         map[uint64]*liveJob
	retained      map[uint64]ResultBody
	retainedOrder []uint64

	snapCh    chan chan *hastate.Snapshot
	crashCh   chan struct{}
	crashOnce sync.Once
	stopOnce  sync.Once

	// Replicas is the replication policy layer's degree k (§5.6), applied to
	// the scheduler tables (and the scheduler itself, when it implements
	// core.ReplicaSetter) at Start: hot chunks are kept resident on k
	// workers, and a worker declared down has its chunks re-homed to their
	// warmest surviving replica instead of orphaning a dataset. Set ≤ 1 for
	// the paper's single-home behaviour. Defaults to core.DefaultReplicas.
	Replicas int

	// Autoscale, when set before Start, enables the elastic-fleet layer
	// (§5.12): the dispatcher's health-check tick evaluates the same
	// hysteresis policy the simulator runs — queue depth, per-tenant SLO
	// headroom, cache pressure — and executes its decisions. A drain
	// gracefully retires one worker (migrate queued batch tasks, pre-warm
	// orphan chunks onto survivors, demote home sets, clean Shutdown); a
	// scale-up raises the desired-workers gauge for an external provisioner
	// and bring-up rides the existing Rejoin path. Nil keeps the fixed-fleet
	// behaviour exactly.
	Autoscale *autoscale.Config

	// FracShare, when set before Start, enables the fractional-capacity
	// layer (§5.13) on the live fleet: the hello ack advertises the slot
	// count K and workers drain each of their two lanes with K executors
	// (§5.18), with the operating system doing the actual time-slicing the
	// simulator's share model prices. The head keeps the busy-share account
	// (per-node in-flight and utilization gauges, the fracshare_* metrics
	// family). Nil advertises no count: one executor a lane, no account.
	FracShare *fracshare.Config
	frac      *fracTracker

	// shard is the head's place in a MultiHead plane (§5.11), which sets it:
	// the hello ack carries the index, and boot attaches the directory to the
	// tables, which read shared estimates on a miss and publish completions
	// and lost nodes. Zero for a lone head.
	shard shardSlot

	// Logf receives diagnostics; defaults to log.Printf.
	Logf func(format string, args ...any)
}

// NewHead builds a head node for the catalog. memQuota must match what the
// workers dedicate to their caches, since the head's tables predict them.
func NewHead(sched core.Scheduler, catalog *Catalog, memQuota units.Bytes, model core.CostModel) *Head {
	h := &Head{
		sched:    sched,
		catalog:  catalog,
		model:    model,
		dsIDs:    make(map[string]volume.DatasetID),
		dsNames:  make(map[volume.DatasetID]string),
		jobCh:    make(chan *liveJob, 64),
		workCh:   make(chan workerEvent, 256),
		rejoinCh: make(chan rejoinEvent, 4),
		stopCh:   make(chan struct{}),
		doneCh:   make(chan struct{}),
		snapCh:   make(chan chan *hastate.Snapshot),
		crashCh:  make(chan struct{}),
		byKey:    make(map[uint64]*liveJob),
		retained: make(map[uint64]ResultBody),
		rng:      rand.New(rand.NewSource(time.Now().UnixNano())),
		clock:    time.Now,
		Logf:     log.Printf,

		DeadlineFactor: 4,
		MinDeadline:    time.Second,
		MaxRetries:     3,
		RetryBackoff:   25 * time.Millisecond,
		CheckInterval:  50 * time.Millisecond,
		SuspectAfter:   3 * DefaultHeartbeat,
		DownAfter:      10 * DefaultHeartbeat,
		Replicas:       core.DefaultReplicas,
	}
	for i, name := range catalog.Names() {
		id := volume.DatasetID(i + 1)
		h.dsIDs[name] = id
		h.dsNames[id] = name
	}
	h.memQuota = memQuota
	return h
}

// AddWorker registers a connected worker. It must be called before Start;
// the worker's hello message is consumed here and acked with the node slot.
func (h *Head) AddWorker(conn transport.Conn) error {
	if h.started {
		return fmt.Errorf("service: AddWorker after Start")
	}
	if _, err := recvHello(conn, "worker hello"); err != nil {
		return err
	}
	node := len(h.slots)
	h.slots = append(h.slots, workerSlot{conn: conn})
	return send(conn, transport.KindHello, 0, HelloBody{NodeID: node, Shard: h.shard.index, Slots: h.fracSlots()})
}

// recvHello reads the hello a worker opens its connection with; what names
// the handshake in the error.
func recvHello(conn transport.Conn, what string) (HelloBody, error) {
	var hello HelloBody
	msg, err := conn.Recv()
	if err != nil {
		return hello, fmt.Errorf("service: %s: %w", what, err)
	}
	if msg.Kind != transport.KindHello {
		return hello, fmt.Errorf("service: expected hello, got %v", msg.Kind)
	}
	return hello, transport.Decode(msg.Body, &hello)
}

// fracSlots returns the fractional slot count workers must run with, or 0
// when the fractional-capacity layer is off.
func (h *Head) fracSlots() int {
	if h.FracShare == nil {
		return 0
	}
	return h.FracShare.SlotCount()
}

// Rejoin re-registers a reconnecting worker under its previous NodeID —
// the §VI-D repair path. The hello must carry Rejoin and a NodeID the head
// currently considers down; otherwise the connection is closed. Valid after
// Start; safe to call from any goroutine.
func (h *Head) Rejoin(conn transport.Conn) error {
	if !h.started {
		return fmt.Errorf("service: Rejoin before Start")
	}
	hello, err := recvHello(conn, "rejoin hello")
	if err != nil {
		return err
	}
	return h.rejoinDecoded(conn, hello)
}

// rejoinDecoded hands an already-decoded rejoin hello to the dispatcher —
// the tail of Rejoin, split out so MultiHead.Rejoin can decode once, route
// by the hello's shard index, and deliver to the owning head.
func (h *Head) rejoinDecoded(conn transport.Conn, hello HelloBody) error {
	if !h.started {
		return fmt.Errorf("service: Rejoin before Start")
	}
	if !hello.Rejoin || hello.NodeID < 0 || hello.NodeID >= len(h.slots) {
		conn.Close()
		return fmt.Errorf("service: bad rejoin hello (rejoin=%v node=%d)", hello.Rejoin, hello.NodeID)
	}
	select {
	case h.rejoinCh <- rejoinEvent{conn: conn, hello: hello}:
		return nil
	case <-h.stopCh:
		conn.Close()
		return transport.ErrClosed
	}
}

// Start launches the dispatcher and worker readers on fresh tables. At least
// one worker must have been added.
func (h *Head) Start() error {
	st, err := h.fresh()
	if err != nil {
		return err
	}
	l, err := h.boot(st)
	if err != nil {
		return err
	}
	go l.run()
	return nil
}

// fresh is the state a new head boots from: empty tables over the added
// workers, at the replication degree, and nothing else.
func (h *Head) fresh() (*hastate.State, error) {
	if len(h.slots) == 0 {
		return nil, fmt.Errorf("service: no workers")
	}
	tables := core.NewHeadState(len(h.slots), h.memQuota, h.model)
	if h.Replicas > 1 {
		tables.SetReplication(h.Replicas)
	}
	return &hastate.State{Tables: tables}, nil
}

// boot is the one bring-up, from fresh tables (Start) or replayed ones
// (StartRecovered), up to the dispatcher goroutine. It returns the loop state
// for run — or, in a test, for whoever calls step. A worker slot with a
// connection gets a sender and a reader; a recovered slot waits for its
// worker's resync.
func (h *Head) boot(st *hastate.State) (*headLoop, error) {
	// Decode every recovered request before touching the head: a journal or
	// snapshot this build cannot read is refused whole, not half-adopted.
	restored := make([]*liveJob, len(st.Jobs))
	for i, rj := range st.Jobs {
		lj, err := h.restoreJob(rj)
		if err != nil {
			return nil, err
		}
		restored[i] = lj
	}
	h.state = st.Tables
	if h.shard.dir != nil {
		h.state.SetEstimateSource(h.shard.dir.Estimate)
		h.state.SetDirectoryWriter(shard.Writer{Dir: h.shard.dir, First: h.shard.index, Stride: h.shard.n})
	}
	n := len(h.state.Available)
	// Anchor the clock at the state's instant (zero on fresh tables): journal
	// records written from here on sort after everything replayed, and
	// Estimate aging sees no time warp.
	wall := h.wall()
	h.start = wall.Add(-time.Duration(st.At))

	// The optional layers' controllers, on fresh tables and recovered ones
	// alike: the scheduler's replica knob (§5.6; the tables carry the degree
	// already), QoS (§5.7) with its books taken back, prefetch (§5.8) and the
	// fractional-share account (§5.13).
	if h.Replicas > 1 {
		if rs, ok := h.sched.(core.ReplicaSetter); ok {
			rs.SetReplicas(h.Replicas)
		}
	}
	if h.QoS != nil {
		cfg := *h.QoS
		if h.DropStale {
			cfg.AlwaysShedStale = true
		}
		h.qosc = qos.NewController(&cfg)
		if st.QoS != nil {
			h.qosc.Restore(st.QoS)
		}
	}
	if h.Prefetch != nil {
		if ps, ok := h.sched.(core.PrefetchSetter); ok {
			h.prefc = prefetch.NewController(h.Prefetch, n, h.chunkSize)
			h.state.SetPrefetchObserver(warmStats{h.prefc, &h.stats.prefetchWasted})
			ps.SetPrefetchPlanner(h.prefc)
		}
	}
	if h.FracShare != nil {
		h.frac = newFracTracker(n, h.fracSlots())
	}

	h.slots = append(h.slots, make([]workerSlot, n-len(h.slots))...)
	for k := range h.slots {
		node, w := core.NodeID(k), &h.slots[k]
		w.lastBeat = wall // a recovered slot's silence counts from takeover
		if w.conn != nil {
			w.send = h.attach(node, 0, w.conn)
		} else {
			// Sends fail as to a dead node until the rejoin path swaps in a
			// live sender, and an "up" verdict no connection backs is demoted
			// to suspect (journaled like any health transition) so nothing
			// is dispatched blind.
			w.send = closedSender()
			if h.state.Health(node) == core.HealthUp {
				h.state.MarkSuspect(node)
				h.journalRec(journal.KindSuspect, 0, -1, node, st.At, nil)
			}
		}
		if h.state.Health(node) == core.HealthDown {
			w.downAt = wall
		}
		w.health.Store(int32(h.state.Health(node)))
	}
	h.mu.Lock()
	h.nextJobID = st.NextJobID
	h.mu.Unlock()

	// Hand the recovered jobs to the loop before its first event, so
	// completions and resyncs find them.
	l := newHeadLoop(h)
	var live []*core.Job
	for i, rj := range st.Jobs {
		lj := restored[i]
		l.inflight[lj.job.ID] = lj
		for j := range lj.tasks {
			if t := &lj.tasks[j]; t.state == taskSent { // recovered as dispatched
				h.count(t, st.At)
			}
		}
		if key := lj.req.Key; key != 0 {
			h.byKey[key] = lj
		}
		if rj.Rec.Done() {
			continue // complete; waits for retained replays, renders nothing
		}
		live = append(live, rj.Job)
		if rj.Job.Remaining == 0 {
			continue // fully in flight; completions or deadlines move it
		}
		if h.qosc != nil && rj.Job.Remaining == len(rj.Job.Tasks) {
			// Undispatched jobs re-enter the fair queue in admission order;
			// partially-dispatched ones go straight to the backlog below.
			h.qosc.Requeue(rj.Job)
			continue
		}
		l.backlog.Push(rj.Job)
	}
	if h.qosc != nil {
		// The journal-reconstructed job list is the authority on session
		// in-flight depths; the snapshot's view may lag it.
		h.qosc.Rebind(live)
	}
	h.started = true
	return l, nil
}

// attach starts the reader and the writer of one incarnation of node's
// connection, both feeding the dispatcher events stamped with gen.
func (h *Head) attach(node core.NodeID, gen uint64, conn transport.Conn) *sender {
	go func() {
		for {
			msg, err := conn.Recv()
			if err != nil {
				h.workCh <- workerEvent{node: node, gen: gen, err: err}
				return
			}
			h.workCh <- workerEvent{node: node, gen: gen, msg: msg}
		}
	}()
	return newSender(conn, func(err error) {
		h.workCh <- workerEvent{node: node, gen: gen, err: err}
	})
}

// Stop shuts the service down and waits for the dispatcher to exit. A head
// that was never started stops trivially; repeated Stops are idempotent.
func (h *Head) Stop() {
	if !h.started {
		return
	}
	h.stopOnce.Do(func() { close(h.stopCh) })
	<-h.doneCh
}

// wall reads the head's clock. Everything head-side that asks what time it
// is asks here (or now), so a test that sets the clock owns the head's time;
// workers time real ray-casts and read the wall clock themselves.
func (h *Head) wall() time.Time { return h.clock() }

// now returns service-relative time for the scheduler's tables.
func (h *Head) now() units.Time { return units.Time(h.wall().Sub(h.start)) }

// chunkSize resolves a scheduler chunk ID to its manifest byte size; zero
// for chunks the predictor extrapolated past a dataset edge.
func (h *Head) chunkSize(c volume.ChunkID) units.Bytes {
	m := h.catalog.Get(h.dsNames[c.Dataset])
	if m == nil || c.Index < 0 || c.Index >= len(m.Chunks) {
		return 0
	}
	return m.Chunks[c.Index].SizeBytes
}

// WorkerHealth returns the head's current liveness verdict for worker k.
// Safe from any goroutine.
func (h *Head) WorkerHealth(k core.NodeID) core.Health {
	if int(k) < 0 || int(k) >= len(h.slots) {
		return core.HealthDown
	}
	return core.Health(h.slots[k].health.Load())
}

// setHealth records a state-machine transition in both the scheduler tables
// (dispatcher-owned) and the atomic mirror, journaling transitions that
// actually moved the tables.
func (h *Head) setHealth(k core.NodeID, to core.Health) {
	switch to {
	case core.HealthSuspect:
		if h.state.Health(k) == core.HealthUp {
			h.state.MarkSuspect(k)
			h.journalRec(journal.KindSuspect, 0, -1, k, h.now(), nil)
		}
	case core.HealthUp:
		if h.state.Health(k) == core.HealthSuspect {
			h.state.MarkUp(k)
			h.journalRec(journal.KindUp, 0, -1, k, h.now(), nil)
		}
	}
	h.slots[k].health.Store(int32(to))
}

// taskDeadline derives a dispatch deadline from the committed prediction:
// DeadlineFactor × Estimate-based prediction, floored at MinDeadline.
func (h *Head) taskDeadline(t *core.Task) time.Duration {
	d := time.Duration(float64(t.PredictedExec.Std()) * h.DeadlineFactor)
	if d < h.MinDeadline {
		d = h.MinDeadline
	}
	return d
}

// correct feeds a fragment's execution facts back into the tables (§V-B) at
// the given instant, and returns what the journal's completion record needs:
// whether a prefetched residency was settled into a demand hit, and the
// eviction list mapped to scheduler chunk IDs.
func (h *Head) correct(lj *liveJob, node core.NodeID, frag *FragmentBody, now units.Time) (touch bool, evicted []volume.ChunkID) {
	task := &lj.job.Tasks[frag.TaskIndex]
	evicted = h.chunkIDs(frag.Evicted)
	if h.prefc != nil && frag.Hit && h.state.DemandTouchPrefetched(task.Chunk, node) {
		h.stats.prefetchHits.Add(1)
		touch = true
	}
	h.state.Correct(core.TaskResult{
		Task: task, Node: node, Hit: frag.Hit, Exec: units.Duration(frag.ExecNanos),
		Predicted: task.PredictedExec, Evicted: evicted, Finished: now,
	}, now)
	h.stats.evictions.Add(int64(len(frag.Evicted)))
	if frag.Hit {
		h.stats.hits.Add(1)
	} else {
		h.stats.misses.Add(1)
	}
	h.stats.renderNanos.Add(frag.ExecNanos)
	return touch, evicted
}

// prefetchDone settles a warm the head had in flight on the reporting node,
// syncing the prediction tables with what actually landed (or did not).
// Dispatcher-owned: called only from the event loop.
func (h *Head) prefetchDone(node core.NodeID, pd PrefetchDoneBody) {
	if h.prefc == nil {
		return
	}
	id, ok := h.dsIDs[pd.Dataset]
	if !ok {
		return
	}
	c := volume.ChunkID{Dataset: id, Index: pd.Chunk}
	if !pd.Loaded {
		// Already resident, load failure, or a pin-saturated cache: nothing
		// landed, so release the node for the next plan.
		h.prefc.Cancel(node, c)
		h.stats.prefetchCancelled.Add(1)
		return
	}
	size := h.chunkSize(c)
	if size <= 0 {
		// A chunk outside the manifest has no size to cache it at; drop the
		// report as resync drops such a chunk, and free the node.
		h.Logf("head: node %d reported prefetching %v, which is outside the manifest; ignored", node, c)
		h.prefc.Cancel(node, c)
		return
	}
	h.stats.prefetchLoaded.Add(1)
	h.stats.prefetchNanos.Add(pd.Nanos)
	evicted := h.chunkIDs(pd.Evicted)
	h.state.LandWarm(c, node, size, evicted)
	h.stats.evictions.Add(int64(len(pd.Evicted)))
	h.journalRec(journal.KindPrefetch, 0, -1, node, h.now(),
		hastate.PrefetchBody{Chunk: c, Size: size, Loaded: true, Evicted: evicted})
}

// chunkIDs maps a worker's chunk list to scheduler chunk IDs, dropping
// datasets the catalog does not have.
func (h *Head) chunkIDs(refs []ChunkRef) []volume.ChunkID {
	ids := make([]volume.ChunkID, 0, len(refs))
	for _, r := range refs {
		if id, ok := h.dsIDs[r.Dataset]; ok {
			ids = append(ids, volume.ChunkID{Dataset: id, Index: r.Index})
		}
	}
	return ids
}

// warmStats is the live head's prefetch observer on its tables: the
// controller hears every rule, and each warm the tables settle as wasted
// counts on the stats pages.
type warmStats struct {
	*prefetch.Controller
	wasted *atomic.Int64
}

func (w warmStats) Wasted(core.NodeID, volume.ChunkID) { w.wasted.Add(1) }

// compose decodes a completed job's fragments and composites them, nearest
// first, into its w×h frame; it sorts frags in place. A fragment is a rectangle of that frame, and
// the rectangle comes off the wire: it is held to the frame before it sizes
// anything — W and H to [1, maxFrameEdge] first, so that the differences
// below cannot wrap, then the origin to what leaves room for them. The one
// rectangle outside that rule is none at all: a brick that drew nothing.
func compose(w, h int, frags []*FragmentBody) (*img.Image, error) {
	// Stable, so fragments at one depth keep task order, as
	// compositing.ByDepth leaves them.
	slices.SortStableFunc(frags, func(a, b *FragmentBody) int { return cmp.Compare(a.Depth, b.Depth) })
	layers := make([]compositing.Layer, 0, len(frags))
	rejected := func(f *FragmentBody, err error) error {
		return fmt.Errorf("fragment %d, a %dx%d rectangle at (%d,%d) of a %dx%d frame: %w", f.TaskIndex, f.W, f.H, f.X0, f.Y0, w, h, err)
	}
	// The decoded layers go back to the free list however this ends.
	defer func() {
		for _, l := range layers {
			img.Put(l.Image)
		}
	}()
	for _, f := range frags {
		if f.W == 0 && f.H == 0 && len(f.Data) == 0 {
			continue
		}
		if f.W <= 0 || f.H <= 0 || f.W > maxFrameEdge || f.H > maxFrameEdge ||
			f.X0 < 0 || f.Y0 < 0 || f.X0 > w-f.W || f.Y0 > h-f.H {
			return nil, rejected(f, errors.New("it is not inside the frame"))
		}
		m, err := decodePixels(f.W, f.H, f.Codec, f.Data)
		if err != nil {
			return nil, rejected(f, err)
		}
		layers = append(layers, compositing.Layer{Image: m, X0: f.X0, Y0: f.Y0})
	}
	// The head composites with real goroutine parallelism; the swap
	// algorithms in internal/compositing model the distributed exchange the
	// workers would perform and are verified equal to this result.
	return compositing.Concurrent{}.CompositeLayers(w, h, layers), nil
}

// pngScratch recycles the buffer finalize encodes a frame's PNG into.
var pngScratch = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// finalize composites a completed job's fragments and replies to the client.
// It runs outside the dispatcher: the job is complete, so nothing else
// touches it.
func (h *Head) finalize(lj *liveJob) {
	failf := func(err error) {
		if h.qosc != nil {
			h.qosc.Forget(lj.job)
		}
		h.stats.jobsFailed.Add(1)
		h.mu.Lock()
		h.dropKeyLocked(lj) // no retained result: a re-submission re-renders
		conn, msgID := lj.conn, lj.msgID
		h.mu.Unlock()
		if conn != nil {
			_ = send(conn, transport.KindError, msgID, ErrorBody{Msg: err.Error()})
		}
	}
	hits := 0
	frags := make([]*FragmentBody, len(lj.tasks))
	for i := range lj.tasks {
		frags[i] = lj.tasks[i].frag
		if frags[i].Hit {
			hits++
		}
	}
	misses := len(frags) - hits
	final, err := compose(lj.req.Width, lj.req.Height, frags)
	if err != nil {
		failf(err)
		return
	}
	// What whole-frame fragments would have carried, and what these did.
	frames := int64(lj.req.Width) * int64(lj.req.Height) * int64(len(frags))
	var shipped int64
	for _, f := range frags {
		shipped += int64(f.W) * int64(f.H) // compose held them to the frame
	}

	buf := pngScratch.Get().(*bytes.Buffer)
	buf.Reset()
	err = final.EncodePNG(buf)
	w, ht := final.W, final.H
	img.Put(final)
	// The PNG outlives this call (the reply, the retained-result store), so
	// it leaves the pooled buffer as an exact-size copy.
	png := bytes.Clone(buf.Bytes())
	pngScratch.Put(buf)
	if err != nil {
		failf(err)
		return
	}
	res := ResultBody{
		Width:        w,
		Height:       ht,
		PNG:          png,
		ElapsedNanos: h.wall().Sub(lj.wall).Nanoseconds(),
		Hits:         hits,
		Misses:       misses,
	}
	// Retire the key atomically: store the result, drop the in-flight
	// binding, and capture the reply path in one critical section. A
	// re-submission racing the PNG encode either re-attached (finalize sees
	// its conn here) or arrives after and is served from the store — in no
	// interleaving does it miss both and re-render.
	h.mu.Lock()
	if lj.req.Key != 0 {
		h.storeRetainedLocked(lj.req.Key, res)
		h.dropKeyLocked(lj)
	}
	conn, msgID := lj.conn, lj.msgID
	h.mu.Unlock()
	// Count the frame before replying: a client that holds its result must
	// find it in Stats.
	h.stats.frameLat.add(h.wall().Sub(lj.wall))
	h.stats.jobsCompleted.Add(1)
	h.stats.fragmentPixels.Add(shipped)
	h.stats.framePixels.Add(frames)
	if lj.req.Batch {
		h.stats.batchCompleted.Add(1)
	}
	if conn == nil {
		// A recovered job whose client never re-attached: the result waits in
		// the retained store for the key's re-submission.
		h.Logf("head: job %d completed with no client attached; result retained", lj.job.ID)
	} else if err := send(conn, transport.KindResult, msgID, &res); err != nil {
		h.Logf("head: result reply failed: %v", err)
	}
	if h.qosc != nil {
		lat := units.Duration(h.wall().Sub(lj.wall))
		if changed, level := h.qosc.Observe(lj.job, lat, h.now()); changed {
			h.Logf("head: qos degradation ladder -> %v", level)
		}
	}
}

// QoSController exposes the running QoS controller for introspection
// (degradation level, per-tenant outcome, fairness). Nil when QoS is off or
// the head has not started.
func (h *Head) QoSController() *qos.Controller { return h.qosc }

// KillWorker forcibly closes the connection to worker k — a failure
// injection hook for tests and demonstrations of §VI-D's fault tolerance. A
// recovered slot whose worker has not resynced has no connection to close.
func (h *Head) KillWorker(k core.NodeID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if int(k) < 0 || int(k) >= len(h.slots) || h.slots[k].conn == nil {
		return
	}
	h.slots[k].conn.Close()
}

// submit builds a liveJob from a render request and hands it to the
// dispatcher.
func (h *Head) submit(conn transport.Conn, msgID uint64, req RenderBody) error {
	m := h.catalog.Get(req.Dataset)
	if m == nil {
		return fmt.Errorf("unknown dataset %q", req.Dataset)
	}
	if req.Width <= 0 || req.Width > maxFrameEdge || req.Height <= 0 || req.Height > maxFrameEdge {
		return fmt.Errorf("bad image size %dx%d", req.Width, req.Height)
	}
	// A ray from a camera that is not a finite place never leaves its march
	// loop, and the worker marching it never takes another task.
	for _, v := range [...]float64{req.Angle, req.Elevation, req.Dist} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("bad camera angle %v elevation %v dist %v", req.Angle, req.Elevation, req.Dist)
		}
	}
	h.mu.Lock()
	h.nextJobID++
	id := h.nextJobID
	h.mu.Unlock()

	class := core.Interactive
	if req.Batch {
		class = core.Batch
	}
	dsID := h.dsIDs[req.Dataset]
	job := &core.Job{
		ID:      id,
		Class:   class,
		Action:  core.ActionID(req.Action),
		Tenant:  core.TenantID(req.Tenant),
		Dataset: dsID,
		Issued:  h.now(),
	}
	job.Tasks = make([]core.Task, len(m.Chunks))
	for i, c := range m.Chunks {
		job.Tasks[i] = core.Task{
			Job:   job,
			Index: i,
			Chunk: volume.ChunkID{Dataset: dsID, Index: i},
			Size:  c.SizeBytes,
		}
	}
	job.Remaining = len(job.Tasks)
	h.stats.jobsIssued.Add(1)
	if req.Batch {
		h.stats.batchIssued.Add(1)
	}
	h.jobCh <- &liveJob{
		job:   job,
		req:   req,
		tasks: make([]liveTask, len(job.Tasks)),
		conn:  conn,
		msgID: msgID,
		wall:  h.wall(),
	}
	return nil
}

// HandleClient serves one client connection: each render request becomes a
// job; results flow back asynchronously with the request's message ID.
func (h *Head) HandleClient(conn transport.Conn) {
	serveClient(conn, func(RenderBody) *Head { return h })
}

// ServeClients accepts client connections until the listener closes.
func (h *Head) ServeClients(l transport.Listener) { acceptClients(l, h.HandleClient) }

// serveClient is the one client loop, of a lone head and of a sharded plane:
// each render request becomes a job on the head route names for it.
func serveClient(conn transport.Conn, route func(RenderBody) *Head) {
	for {
		msg, err := conn.Recv()
		if err != nil {
			return
		}
		switch msg.Kind {
		case transport.KindRender:
			var req RenderBody
			if err := transport.Decode(msg.Body, &req); err != nil {
				_ = send(conn, transport.KindError, msg.ID, ErrorBody{Msg: err.Error()})
				continue
			}
			if err := route(req).submit(conn, msg.ID, req); err != nil {
				_ = send(conn, transport.KindError, msg.ID, ErrorBody{Msg: err.Error()})
			}
		case transport.KindShutdown:
			return
		default:
			_ = send(conn, transport.KindError, msg.ID, ErrorBody{Msg: "unexpected " + msg.Kind.String()})
		}
	}
}

// acceptClients hands each accepted client connection to handle, on its own
// goroutine, until the listener closes.
func acceptClients(l transport.Listener, handle func(transport.Conn)) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		go handle(conn)
	}
}
