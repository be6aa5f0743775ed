// Package sim is the discrete-event execution engine that plays a workload
// against a scheduler on a modeled GPU cluster — the experimental apparatus
// behind every figure and table in the paper's evaluation (§VI).
//
// All rendering dynamics (disk I/O, GPU upload, ray casting, compositing,
// FIFO queueing at nodes, memory management) advance a virtual clock via
// internal/des, so a 600-second scenario runs in seconds of wall time. The
// scheduler code itself is the real artifact: its invocations are timed with
// the wall clock, which is what Table III's "avg. cost" column reports.
//
// The node model defaults to the paper's cost model (Definition 1: a task
// serially occupies its node for tio + trender + tcomposite). Every node
// runs on one executor (executor.go): K task slots over a compute capacity
// of C, a task's rate its share of C. The paper's node is K = C = 1; what
// the paper names as future work are settings of the same executor —
// multi-GPU nodes (GPUsPerNode, K = C = 2 on System 2), fractional slots
// (FracShare, K slots over the same C), overlapped I/O (OverlapIO — the
// three-thread latency hiding of §V-C, which moves a task's load from its
// slot to the node's I/O channel) and a two-level main-memory/GPU-memory
// hierarchy (GPUCache). They compose freely. The eviction policy is
// pluggable for the ablation benchmarks.
package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"vizsched/internal/autoscale"
	"vizsched/internal/cache"
	"vizsched/internal/core"
	"vizsched/internal/des"
	"vizsched/internal/fracshare"
	"vizsched/internal/metrics"
	"vizsched/internal/prefetch"
	"vizsched/internal/qos"
	"vizsched/internal/queue"
	"vizsched/internal/shard"
	"vizsched/internal/trace"
	"vizsched/internal/units"
	"vizsched/internal/volume"
	"vizsched/internal/workload"
)

// Failure injects one fault into a run — the fault-tolerance behaviour
// §VI-D describes, extended into a small chaos model. The zero Kind is a
// clean crash, so pre-existing Failure literals keep their meaning.
type Failure struct {
	At   units.Time
	Node core.NodeID
	// RepairAt ends the fault: a crash's node returns to service (with cold
	// caches), a slow disk or stall recovers. Zero means a crash stays down;
	// interval faults default to a 10-second interval.
	RepairAt units.Time

	// Kind selects the fault model; FaultCrash (zero) is the original clean
	// crash.
	Kind FaultKind
	// Factor is FaultSlowDisk's I/O time multiplier (loads take Factor×
	// longer); values ≤ 1 default to 4.
	Factor float64
	// Period, Count, and Seed shape FaultFlap: Count seeded crash/repair
	// cycles spaced Period apart starting at At. Zero values default to
	// 3 cycles of 5 seconds.
	Period units.Duration
	Count  int
	Seed   int64
}

// Config describes one simulation run.
type Config struct {
	// Nodes is the rendering-node count p.
	Nodes int
	// MemQuota is each node's main-memory budget for cached chunks.
	MemQuota units.Bytes
	// GPUMem, when positive, validates that no chunk exceeds it (§III-C's
	// Chkmax constraint).
	GPUMem units.Bytes
	// Model prices the pipeline stages.
	Model core.CostModel
	// Scheduler is the policy under test.
	Scheduler core.Scheduler
	// Library holds the datasets, already decomposed. Build it with the
	// scheduler's preferred policy (see core.DecompositionOverrider).
	Library *volume.Library
	// Jitter perturbs actual execution times by ±Jitter fraction to exercise
	// the head node's prediction-correction path. Zero disables.
	Jitter float64
	// Seed drives the jitter stream (and random eviction, if selected).
	Seed int64
	// Preload warms every node's cache round-robin with the library's
	// chunks (as far as quotas allow) and tells the head about it. The
	// paper's scenarios measure a running service, not a cold boot; without
	// preloading, initial disk loads dominate short runs.
	Preload bool
	// EvictionPolicy selects the node caches' replacement strategy;
	// defaults to LRU, the paper's choice.
	EvictionPolicy cache.Policy
	// GPUCache, when positive, models video memory as a second cache level:
	// a main-memory hit still pays the PCIe upload unless the chunk is also
	// GPU-resident. Zero folds the upload into the miss path (Definition 1).
	GPUCache units.Bytes
	// OverlapIO lets a node keep rendering resident chunks while a missing
	// chunk loads on its I/O channel, instead of holding a slot through the
	// load (Definition 1).
	OverlapIO bool
	// GPUsPerNode is the node's compute capacity C in full-rate tasks, and
	// its slot count K unless FracShare sets one; zero/one is the serial
	// default.
	GPUsPerNode int
	// Trace, when non-nil, records scheduling and execution events for CSV
	// or Gantt export. Cap it (trace.New(n)) on large runs.
	Trace *trace.Log
	// Failures to inject.
	Failures []Failure
	// Replicas enables the replication policy layer (§5.6) at degree k:
	// the head tracks per-chunk home/secondary nodes, OURS diverts a bounded
	// fraction of batch work to secondaries so hot chunks become k-resident,
	// and a crash re-homes the dead node's chunks to their warmest surviving
	// replica. 0 or 1 keeps the paper's single-home behaviour exactly.
	Replicas int
	// QoS enables the multi-tenant admission/fair-queuing/degradation layer
	// (§5.7): arrivals pass per-tenant token buckets, the job queue becomes
	// deficit-round-robin across tenants, and sustained interactive SLO
	// breach steps the degradation ladder. nil (the default) keeps the
	// single FIFO exactly, so published figures are unaffected. All QoS
	// decisions run in virtual time — results stay bit-reproducible.
	QoS *qos.Config
	// Prefetch enables the predictive chunk-warming layer (§5.8): a
	// trajectory predictor trained on completed tasks plans background warms
	// into the idle windows demand scheduling leaves open, metered by a
	// per-node bandwidth governor. Requires a scheduler implementing
	// core.PrefetchSetter (OURS); under other schedulers the setting is
	// inert. nil (the default) leaves every code path untouched, so golden
	// outputs are bit-identical.
	Prefetch *prefetch.Config
	// Shards splits the control plane into this many independent head shards
	// (§5.11), each an ordinary Engine over a contiguous partition of the
	// nodes, coordinated through a shared chunk directory. Sessions hash to
	// shards by tenant (falling back to action), so a session's frames always
	// meet the same head. Build sharded runs with NewSharded; New rejects
	// Shards > 1. Zero/one leaves every single-head code path untouched, so
	// golden outputs are bit-identical.
	Shards int
	// NewScheduler constructs one scheduler instance per shard — scheduler
	// scratch state is not safe to share across dispatchers. Required when
	// Shards > 1; ignored otherwise.
	NewScheduler func() core.Scheduler
	// HeadCost prices the control plane's serial work (admission, dispatch,
	// completion processing) in virtual time for sharded runs — the quantity
	// sharding exists to divide. nil selects shard.DefaultHeadCost()
	// when Shards > 1; the single-head path never charges it, keeping golden
	// outputs exact.
	HeadCost *shard.HeadCost
	// Donation enables cross-shard work donation: an idle shard past the
	// ε-guard adopts queued batch jobs from the hottest shard via the
	// directory's donation board, preserving fair-queue order within each
	// donated tenant. Sharded runs only.
	Donation bool
	// Autoscale enables the elastic-fleet layer (§5.12): a hysteresis
	// control loop samples queue depth, SLO headroom, and cache pressure on
	// the virtual clock and activates or gracefully drains nodes between
	// MinNodes and MaxNodes. Drains migrate queued work and pre-warm the
	// victim's working set before the capacity leaves; nothing they do ever
	// touches the Recovery crash accounting. nil (the default) leaves every
	// code path untouched, so golden outputs are bit-identical.
	Autoscale *autoscale.Config
	// FracShare enables the fractional-capacity layer (§5.13): nodes run up
	// to Slots concurrent tasks at fractional shares of GPUsPerNode, disk
	// loads sharing a node contend super-linearly, and schedulers
	// implementing core.CoScheduleSetter (OURS) may co-schedule one cached
	// batch guest per node inside the ε-guard window, preempted the instant
	// demand work starts. nil (the default) keeps every share at 1 and
	// reports no FracShare outcome, so golden outputs are bit-identical.
	FracShare *fracshare.Config
}

// node is the actual state of one rendering node.
type node struct {
	id  core.NodeID
	mem *cache.Store
	gpu *cache.Store // nil unless the two-level hierarchy is enabled

	// ready holds the tasks ready for a slot, in arrival order.
	ready queue.FIFO[*core.Task]

	// order holds the running demand tasks in start order — the order
	// re-pricing, stall, resume and a crash's requeue walk; guest is the
	// at-most-one co-scheduled task (§5.13), outside the K demand slots.
	order []*execution
	guest *execution

	// Overlap-mode I/O channel: one load at a time; tasks whose chunk is in
	// flight wait in waiters.
	loadq      queue.FIFO[volume.ChunkID]
	waiters    map[volume.ChunkID][]*core.Task
	loadTimer  des.Timer
	loadActive bool
	// loadFn/loadEnd/loadRemaining let a stall suspend the in-flight load.
	loadFn        des.Event
	loadEnd       units.Time
	loadRemaining units.Duration
	// accessed holds, per task the I/O channel has seen, what its access
	// step found; the task hands it to its slot (only the load-triggering
	// task carries the load's duration and evictions).
	accessed map[*core.Task]access

	// Background warm channel (§5.8): at most one prefetch load in flight,
	// modeled as an extra I/O stream that never occupies the executor.
	pfActive bool
	pfChunk  volume.ChunkID
	pfSize   units.Bytes
	pfEnd    units.Time
	pfTimer  des.Timer
	// pfWaiters are overlap-mode demand tasks that arrived while their chunk
	// was warming and absorbed the in-flight load ("hidden hits").
	pfWaiters []*core.Task

	failed bool
	// draining marks a graceful autoscaler exit in progress (§5.12): the
	// node finishes its running work but takes no new assignments; its
	// queued tasks have already migrated back to the head queue.
	draining bool
	// stalled freezes the node (FaultStall): nothing starts or completes,
	// but queues and caches survive — unlike a crash.
	stalled bool
	// partitioned isolates the node from the head (FaultPartition): it
	// keeps executing its local queue but its completion reports buffer in
	// pendingResults until the partition heals — the DES mirror of the
	// transport fault injector's Partition()/Heal().
	partitioned bool
	// pendingResults holds completion reports the node retained while the
	// head was unreachable (partition or head outage); reconciliation
	// drains them without re-rendering anything (§5.10).
	pendingResults []core.TaskResult
	// ioScale multiplies disk I/O times; 1 is healthy, FaultSlowDisk raises
	// it for an interval.
	ioScale float64
}

// executing reports whether any slot of n holds a task.
func (n *node) executing() bool { return len(n.order) > 0 || n.guest != nil }

// waitingChunks lists the chunks tasks wait on the I/O channel for, in chunk
// order, so that walking the waiters never depends on map order.
func (n *node) waitingChunks() []volume.ChunkID {
	chunks := make([]volume.ChunkID, 0, len(n.waiters))
	for c := range n.waiters {
		chunks = append(chunks, c)
	}
	slices.SortFunc(chunks, volume.CompareChunks)
	return chunks
}

// Engine runs one scenario.
type Engine struct {
	cfg   Config
	sim   *des.Simulator
	head  *core.HeadState
	nodes []*node
	// backlog holds jobs with unassigned tasks awaiting the scheduler. With
	// QoS enabled the controller is its gate: admitted jobs wait in its fair
	// queue, and each pass releases them in fair order.
	backlog core.Backlog
	report  *metrics.Report
	rng     *rand.Rand
	qosc    *qos.Controller
	// pref is the prefetch controller (nil when disabled).
	pref *prefetch.Controller
	// pinned tracks the demand tasks whose resident chunk the engine pinned
	// at enqueue so a background warm can never evict it (prefetch only).
	pinned map[*core.Task]bool
	// scaler is the elastic-fleet machinery (nil when disabled); see
	// autoscale.go.
	scaler *autoScaler

	// The node executor's parameters (executor.go): slots is K, capacity is
	// C, gamma the I/O contention exponent and coShare a guest's share of an
	// otherwise idle node. frac holds the FracShare outcome and busy-share
	// meters — reporting only, nil unless Config.FracShare is set.
	slots    int
	capacity float64
	gamma    float64
	coShare  float64
	frac     *fracRuntime

	// headDown marks a control-plane outage (FaultHeadCrash): no admission,
	// scheduling, or completion processing until the standby takes over.
	// deferred buffers the outage's arrivals for admission at repair.
	headDown bool
	deferred []workload.Request

	nextJob core.JobID
	// retired holds the jobs finished since the last pass that ran the
	// scheduler; free holds, by task count, the jobs ready for reuse. A
	// finished job waits out one more pass because the carried window
	// compares job pointers (DESIGN.md §5.17).
	retired []*core.Job
	free    [][]*core.Job
	// freeExec holds finished execution records for reuse.
	freeExec []*execution
}

// New validates the configuration and builds an engine.
func New(cfg Config) *Engine {
	if cfg.Shards > 1 {
		panic("sim: Config.Shards > 1 requires NewSharded")
	}
	if cfg.Nodes <= 0 {
		panic("sim: need at least one node")
	}
	if cfg.Library == nil || cfg.Library.Len() == 0 {
		panic("sim: need a dataset library")
	}
	if cfg.Scheduler == nil {
		panic("sim: need a scheduler")
	}
	if cfg.GPUsPerNode <= 0 {
		cfg.GPUsPerNode = 1
	}
	for _, d := range cfg.Library.All() {
		for _, c := range d.Chunks {
			if cfg.GPUMem > 0 && c.Size > cfg.GPUMem {
				panic(fmt.Sprintf("sim: chunk %v (%v) exceeds GPU memory %v", c.ID, c.Size, cfg.GPUMem))
			}
			if cfg.GPUCache > 0 && c.Size > cfg.GPUCache {
				panic(fmt.Sprintf("sim: chunk %v (%v) exceeds GPU cache %v", c.ID, c.Size, cfg.GPUCache))
			}
			if c.Size > cfg.MemQuota {
				panic(fmt.Sprintf("sim: chunk %v (%v) exceeds node memory quota %v", c.ID, c.Size, cfg.MemQuota))
			}
		}
	}
	e := &Engine{
		cfg:    cfg,
		sim:    des.New(),
		head:   core.NewHeadState(cfg.Nodes, cfg.MemQuota, cfg.Model),
		report: metrics.NewReport(cfg.Scheduler.Name(), cfg.Nodes),
		rng:    rand.New(rand.NewSource(cfg.Seed)),

		// γ = 1 prices every load at its share, so with C ≥ K rates are
		// exactly 1 and the slots' float accounts stay exact integers.
		slots:    cfg.GPUsPerNode,
		capacity: float64(cfg.GPUsPerNode),
		gamma:    1,
	}
	if cfg.FracShare != nil {
		e.initFracShare()
	}
	if cfg.Replicas > 1 {
		e.head.SetReplication(cfg.Replicas)
		if rs, ok := cfg.Scheduler.(core.ReplicaSetter); ok {
			rs.SetReplicas(cfg.Replicas)
		}
	}
	if cfg.QoS != nil {
		e.qosc = qos.NewController(cfg.QoS)
		e.backlog.SetGate(e.qosc)
	}
	if cfg.Prefetch != nil {
		if ps, ok := cfg.Scheduler.(core.PrefetchSetter); ok {
			lib := cfg.Library
			sizeOf := func(c volume.ChunkID) units.Bytes {
				d := lib.Get(c.Dataset)
				if d == nil || c.Index < 0 || c.Index >= len(d.Chunks) {
					return 0
				}
				return d.Chunks[c.Index].Size
			}
			e.pref = prefetch.NewController(cfg.Prefetch, cfg.Nodes, sizeOf)
			e.head.SetPrefetchObserver(warmTrace{e.pref, e})
			ps.SetPrefetchPlanner(e.pref)
			e.pinned = make(map[*core.Task]bool)
		}
	}
	for k := 0; k < cfg.Nodes; k++ {
		e.nodes = append(e.nodes, e.newNode(core.NodeID(k)))
	}
	if cfg.Preload {
		e.preload()
	}
	if cfg.Autoscale != nil {
		e.initAutoscale()
	}
	return e
}

// newNode builds a node with fresh caches per the configuration.
func (e *Engine) newNode(id core.NodeID) *node {
	n := &node{
		id:       id,
		mem:      cache.NewStore(e.cfg.EvictionPolicy, e.cfg.MemQuota, e.cfg.Seed+int64(id)*101),
		order:    make([]*execution, 0, e.slots),
		waiters:  make(map[volume.ChunkID][]*core.Task),
		accessed: make(map[*core.Task]access),
		ioScale:  1,
	}
	if e.cfg.GPUCache > 0 {
		n.gpu = cache.NewStore(e.cfg.EvictionPolicy, e.cfg.GPUCache, e.cfg.Seed+int64(id)*131+7)
	}
	return n
}

// preload distributes the library's chunks round-robin across nodes, warming
// both the actual caches and the head's predictions. Datasets are inserted
// in reverse ID order so that when the data exceeds total memory, LRU keeps
// the low-ID datasets — the popular end under the workload generator's
// popularity conventions — matching the steady state a running service
// would be in.
func (e *Engine) preload() {
	idx := 0
	all := e.cfg.Library.All()
	for i := len(all) - 1; i >= 0; i-- {
		for _, c := range all[i].Chunks {
			k := idx % e.cfg.Nodes
			e.nodes[k].mem.Insert(c.ID, c.Size)
			e.head.Caches[k].Insert(c.ID, c.Size)
			idx++
		}
	}
}

// Run plays the workload until the given horizon of virtual time (zero
// selects the workload's own length) and returns the collected metrics.
func (e *Engine) Run(wl *workload.Schedule, horizon units.Time) *metrics.Report {
	if horizon <= 0 {
		horizon = wl.Length
	}
	streamArrivals(e.sim, wl.Requests, e.arrive)
	if e.cfg.Scheduler.Trigger() == core.Periodic {
		e.sim.Every(e.cfg.Scheduler.Cycle(), func(s *des.Simulator) { e.invokeScheduler() })
	}
	for _, f := range e.cfg.Failures {
		e.inject(f)
	}
	if e.scaler != nil {
		e.sim.Every(e.scaler.fleet.Config().Interval, func(s *des.Simulator) { e.autoscaleTick() })
	}
	e.report.Horizon = horizon
	e.sim.Run(horizon)
	return e.finish(horizon)
}

// streamArrivals queues a schedule's requests as one des.Stream calling
// arrive for each, in (At, slice index) order — the order one At call per
// request gave them. A schedule already sorted by At (workload.Generate and
// the sweeps sort stably) streams in place; only an unsorted one is copied.
func streamArrivals(s *des.Simulator, reqs []workload.Request, arrive func(workload.Request)) {
	byAt := func(a, b workload.Request) int { return cmp.Compare(a.At, b.At) }
	if !slices.IsSortedFunc(reqs, byAt) {
		reqs = slices.Clone(reqs)
		slices.SortStableFunc(reqs, byAt)
	}
	s.Stream(len(reqs),
		func(i int) units.Time { return reqs[i].At },
		func(_ *des.Simulator, i int) { arrive(reqs[i]) })
}

// finish attaches the extensions' outcomes to the report once the clock has
// reached the horizon.
func (e *Engine) finish(horizon units.Time) *metrics.Report {
	// The head's derived tables, which every scheduling pass read, must
	// still agree with their sources: a disagreement is a bug, like a task
	// assigned twice.
	if err := e.head.Validate(); err != nil {
		panic(fmt.Sprintf("sim: head tables at the end of the run: %v", err))
	}
	if e.qosc != nil {
		e.report.QoS = e.qosc.Outcome()
	}
	if e.pref != nil {
		e.report.Prefetch = e.pref.Outcome(e.head)
	}
	if e.scaler != nil {
		e.finishAutoscale(horizon)
	}
	if e.frac != nil {
		e.finishFracShare(horizon)
	}
	return e.report
}

// QoS exposes the run's QoS controller (nil when disabled) for tests and
// post-run inspection of the degradation-ladder history.
func (e *Engine) QoS() *qos.Controller { return e.qosc }

// Prefetch exposes the run's prefetch controller (nil when disabled) for
// tests and post-run inspection.
func (e *Engine) Prefetch() *prefetch.Controller { return e.pref }

// arrive turns a request into a decomposed job and queues it. During a head
// outage the request buffers instead — the client retries until the standby
// takes over — and is admitted at repair with its original issue time, so
// latency accounting charges the control-plane downtime to the jobs that
// felt it.
func (e *Engine) arrive(req workload.Request) {
	if e.headDown {
		e.deferred = append(e.deferred, req)
		e.report.Recovery.ArrivalDeferred()
		return
	}
	e.admitArrival(req, e.sim.Now())
}

// admitArrival admits one request as a decomposed job issued at the given
// time (arrival time normally; the original arrival time for requests a
// head outage deferred).
func (e *Engine) admitArrival(req workload.Request, issued units.Time) {
	ds := e.cfg.Library.Get(req.Dataset)
	if ds == nil {
		panic(fmt.Sprintf("sim: request for unknown dataset %d", req.Dataset))
	}
	e.nextJob++
	j := e.newJob(len(ds.Chunks))
	*j = core.Job{
		ID:        e.nextJob,
		Class:     req.Class,
		Action:    req.Action,
		Tenant:    req.Tenant,
		Dataset:   req.Dataset,
		Issued:    issued,
		Tasks:     j.Tasks,
		Remaining: int32(len(j.Tasks)),
		Started:   -1,
	}
	for i, c := range ds.Chunks {
		j.Tasks[i] = core.Task{Job: j, Index: i, Chunk: c.ID, Size: c.Size}
	}
	e.report.JobIssued(req.Class == core.Interactive)
	if j.Tenant != 0 {
		e.report.TenantIssued(int(j.Tenant))
	}
	e.emit(trace.Event{Kind: trace.JobArrive, Job: j.ID, Class: j.Class, Tenant: j.Tenant})
	a := e.backlog.Admit(j, e.sim.Now(), 0, false)
	if e.qosc != nil {
		if a.Stale != nil {
			e.emit(trace.Event{Kind: trace.Shed, Job: a.Stale.ID, Class: a.Stale.Class, Tenant: a.Stale.Tenant})
		}
		e.emit(trace.Event{Kind: admitKind(a.Verdict), Job: j.ID, Class: j.Class, Tenant: j.Tenant})
	}
	if !a.Entered() {
		return
	}
	if e.cfg.Scheduler.Trigger() == core.OnArrival {
		e.invokeScheduler()
	}
}

// newJob returns a job with n tasks: a released one when there is one, else
// a new one. The caller resets every field.
func (e *Engine) newJob(n int) *core.Job {
	if n < len(e.free) && len(e.free[n]) > 0 {
		last := len(e.free[n]) - 1
		j := e.free[n][last]
		e.free[n] = e.free[n][:last]
		return j
	}
	return &core.Job{Tasks: make([]core.Task, n)}
}

// release makes the retired jobs reusable. It runs after a pass that ran
// the scheduler: that pass was shown no finished job, so no scheduler holds
// one any more.
func (e *Engine) release() {
	for _, j := range e.retired {
		n := len(j.Tasks)
		if n >= len(e.free) {
			e.free = append(e.free, make([][]*core.Job, n+1-len(e.free))...)
		}
		e.free[n] = append(e.free[n], j)
	}
	e.retired = e.retired[:0]
}

// admitKind maps an admission verdict to its trace event kind.
func admitKind(v core.Verdict) trace.Kind {
	switch v {
	case core.Throttled:
		return trace.Throttle
	case core.Rejected:
		return trace.Reject
	case core.ShedStale, core.Overloaded:
		return trace.Shed
	default:
		return trace.Admit
	}
}

// invokeScheduler runs the backlog's scheduling pass and carries out what
// it decided: the assignments traced and queued on their nodes, the call
// and the cycle's idle split reported, the warms started — strictly after
// every demand assignment.
func (e *Engine) invokeScheduler() {
	if e.headDown {
		return // control plane down: nothing admits, schedules, or dispatches
	}
	var planner core.PrefetchPlanner
	if e.pref != nil {
		planner = e.pref
	}
	p := e.backlog.Pass(e.sim.Now(), e.cfg.Scheduler, e.head, planner)
	if p.Shown > 0 {
		e.release()
	}
	for _, a := range p.Assignments {
		t := a.Task
		e.emit(trace.Event{Kind: trace.Assign, Job: t.Job.ID, Class: t.Job.Class, Task: t.Index, Node: a.Node, Chunk: t.Chunk})
		if a.CoScheduled {
			e.enqueueCo(e.nodes[a.Node], t)
		} else {
			e.enqueue(e.nodes[a.Node], t)
		}
	}
	if p.Shown > 0 {
		e.report.ScheduleCall(p.Wall, p.Touched)
		// Attribute this cycle's idle-with-pending-batch node time to the
		// ε-guard or to ordinary queueing (§5.13) — pure observation, after
		// the scheduler had its full say.
		e.sampleIdleSplit()
	}
	for _, d := range p.Warms {
		e.startPrefetch(d)
	}
}

// enqueue takes an assigned task to its node. Config.OverlapIO selects the
// access step and nothing else: Definition 1 queues the task as it is and
// its slot pays the access, §V-C sends it through the node's I/O channel
// first. Either way the task ends in the FIFO the slots fill from. A full
// node starts nothing, so its shares stand and the re-price is skipped.
func (e *Engine) enqueue(n *node, t *core.Task) {
	if e.cfg.OverlapIO {
		if !e.accessOnChannel(n, t) {
			return
		}
	} else if e.pref != nil && n.mem.Pin(t.Chunk) {
		e.pinned[t] = true
	}
	n.ready.Push(t)
	if len(n.order) < e.slots {
		e.start(n)
	}
}

// accessOnChannel is §V-C's access step, at assignment: a resident chunk
// makes the task ready at once, a missing one queues a load on the node's
// I/O channel and the task waits for it outside the slots. It reports
// whether the task is ready. The hit/miss metric is recorded at access, as
// on a real node.
func (e *Engine) accessOnChannel(n *node, t *core.Task) (ready bool) {
	t.Job.Start(e.sim.Now())
	if n.mem.Touch(t.Chunk) {
		e.report.TaskAccess(true)
		e.demandTouch(n, t)
		if e.pref != nil && n.mem.Pin(t.Chunk) {
			e.pinned[t] = true
		}
		n.accessed[t] = access{}
		return true
	}
	e.report.TaskAccess(false)
	a := access{miss: true} // the load's trigger will carry its time
	if n.pfActive && n.pfChunk == t.Chunk {
		// The chunk is already warming: the demand task absorbs the
		// in-flight load and waits only for its remainder ("hidden hit").
		if len(n.pfWaiters) == 0 {
			if rem := n.pfEnd.Sub(e.sim.Now()); rem > 0 {
				a.channel = rem
			}
		}
		n.accessed[t] = a
		n.pfWaiters = append(n.pfWaiters, t)
		return false
	}
	n.accessed[t] = a
	ws, loading := n.waiters[t.Chunk]
	n.waiters[t.Chunk] = append(ws, t)
	if !loading {
		n.loadq.Push(t.Chunk)
		e.kickLoad(n)
	}
	return false
}

// emit records a trace event when tracing is enabled.
func (e *Engine) emit(ev trace.Event) {
	if e.cfg.Trace != nil {
		ev.At = e.sim.Now()
		e.cfg.Trace.Add(ev)
	}
}

// jitter perturbs a duration by the configured noise fraction.
func (e *Engine) jitter(d units.Duration) units.Duration {
	if e.cfg.Jitter <= 0 {
		return d
	}
	f := 1 + e.cfg.Jitter*(2*e.rng.Float64()-1)
	return units.Duration(float64(d) * f)
}

// renderCost is the executor-side cost of a task whose chunk is in main
// memory: overhead + (upload if the two-level GPU cache misses) + render +
// composite.
func (e *Engine) renderCost(n *node, t *core.Task) units.Duration {
	m := e.cfg.Model
	work := m.RenderTime(t.Size) + m.CompositeTime(t.Job.GroupSize())
	if e.qosc != nil && t.Job.Class == core.Interactive {
		// Degradation rung 2: interactive frames render at half linear
		// resolution, a quarter of the pixels — render and composite both
		// scale with image area.
		if s := e.qosc.ResolutionScale(); s < 1 {
			work = units.Duration(float64(work) * s * s)
		}
	}
	exec := m.TaskOverhead + work
	if n.gpu != nil && !n.gpu.Touch(t.Chunk) {
		exec += m.PCIeRate.TimeFor(t.Size)
		n.gpu.Insert(t.Chunk, t.Size)
	}
	return exec
}

// scaleIO applies a node's slow-disk multiplier to an I/O duration.
func scaleIO(d units.Duration, factor float64) units.Duration {
	if factor == 1 {
		return d
	}
	return units.Duration(float64(d) * factor)
}

// kickLoad starts the overlap-mode I/O channel if it is idle.
func (e *Engine) kickLoad(n *node) {
	if n.loadActive || n.failed || n.stalled {
		return
	}
	c, ok := n.loadq.Pop()
	if !ok {
		return
	}
	ws := n.waiters[c]
	if len(ws) == 0 {
		// All waiters were requeued by a failure; skip the load.
		delete(n.waiters, c)
		e.kickLoad(n)
		return
	}
	size := ws[0].Size
	dur := scaleIO(e.jitter(e.loadTime(n, size)), n.ioScale)
	fn := func(s *des.Simulator) {
		n.loadActive = false
		n.loadTimer = des.Timer{}
		n.loadFn = nil
		evicted := n.mem.Insert(c, size)
		e.report.EvictionsAdd(len(evicted))
		e.report.LoadAdd()
		e.emit(trace.Event{Kind: trace.Load, Node: n.id, Chunk: c, Dur: dur})
		ws := n.waiters[c]
		delete(n.waiters, c)
		for i, t := range ws {
			if i == 0 {
				// The trigger task reports the load in its execution time
				// and carries the evictions to the head's correction.
				n.accessed[t] = access{miss: true, channel: dur, evicted: evicted}
			}
			n.ready.Push(t)
		}
		e.start(n)
		e.kickLoad(n)
	}
	n.loadActive = true
	n.loadFn = fn
	n.loadEnd = e.sim.Now().Add(dur)
	n.loadTimer = e.sim.After(dur, fn)
}

// account applies one completion report at the head: table correction, job
// progress, QoS observation. now is when the report reaches the head —
// completion time normally, reconciliation time for reports a head outage
// or partition deferred (the job's latency then includes the outage, as a
// client waiting on the frame would measure it). The report moves its task
// to done, which must be out of the queue: a task the head requeued, a
// finished job's and a reused job's are not, so no report can take a job
// past its task count. A finished job retires.
func (e *Engine) account(res core.TaskResult) {
	now := e.sim.Now()
	j := res.Task.Job
	res.Task.Move(core.TaskDone)
	e.head.Correct(res, now)
	j.MaxExec = max(j.MaxExec, res.Exec)
	if int(j.Done) < len(j.Tasks) {
		return
	}
	e.report.JobCompleted(j.Class == core.Interactive, int(j.Action), j.Issued, j.Started, now)
	if j.Class == core.Batch {
		// Stretch: job latency over its largest task's full-share
		// execution — the fairness metric of the DFRS comparison.
		e.report.StretchAdd(now.Sub(j.Issued), j.MaxExec)
	}
	if j.Tenant != 0 {
		e.report.TenantCompleted(int(j.Tenant), j.Class == core.Interactive, now.Sub(j.Issued))
	}
	e.emit(trace.Event{Kind: trace.JobDone, Job: j.ID, Class: j.Class, Tenant: j.Tenant, Dur: now.Sub(j.Issued)})
	if e.qosc != nil {
		if changed, level := e.qosc.Observe(j, now.Sub(j.Issued), now); changed {
			e.emit(trace.Event{Kind: trace.Degrade, Level: int(level)})
		}
	}
	e.retired = append(e.retired, j)
}

// fail crashes a node: its queued, loading, and running tasks return to the
// head queue for re-scheduling, and its memory contents are lost.
func (e *Engine) fail(k core.NodeID) {
	n := e.nodes[k]
	if n.failed {
		return
	}
	n.failed = true
	rehome := e.head.MarkFailed(k)
	e.report.Recovery.NodeDown(int(k), e.sim.Now())
	if rehome.Rehomed > 0 || rehome.Reseeded > 0 {
		e.report.Recovery.ChunksMoved(rehome.Rehomed, rehome.Reseeded)
		if rehome.Fully() {
			// Every orphaned chunk found a warm surviving replica: the
			// outage's service impact ends now, not at the cold repair.
			e.report.Recovery.NodeRehomed(int(k), e.sim.Now())
		}
	}
	e.emit(trace.Event{Kind: trace.NodeFail, Node: k})
	n.pfTimer.Cancel()

	requeue := func(t *core.Task) {
		delete(e.pinned, t)
		e.backlog.Requeue(t)
		e.report.Recovery.TaskRedispatched()
	}
	// Running tasks go back in start order, the guest last — never in map
	// order, which would make the re-dispatch order differ run to run.
	abort := func(ex *execution) {
		ex.timer.Cancel()
		requeue(ex.res.Task)
		e.recycle(ex)
	}
	for _, ex := range n.order {
		abort(ex)
	}
	if n.guest != nil {
		abort(n.guest)
	}
	n.order, n.guest = nil, nil
	n.loadTimer.Cancel()
	n.loadTimer = des.Timer{}
	n.loadActive = false
	for t, ok := n.ready.Pop(); ok; t, ok = n.ready.Pop() {
		requeue(t)
	}
	for _, c := range n.waitingChunks() {
		for _, t := range n.waiters[c] {
			requeue(t)
		}
	}
	for _, t := range n.pfWaiters {
		requeue(t)
	}
	n.pfWaiters = nil
	// Completion reports the node retained through a partition or head
	// outage die with it: the head never saw them, so the tasks re-render.
	for _, res := range n.pendingResults {
		requeue(res.Task)
	}
	n.pendingResults = nil
	n.loadq = queue.FIFO[volume.ChunkID]{}
	fresh := e.newNode(k)
	fresh.failed = true
	e.nodes[k] = fresh
	e.reprice(fresh) // nothing runs on it: the busy-share meters read zero
	if e.cfg.Scheduler.Trigger() == core.OnArrival {
		e.invokeScheduler()
	}
}

// repair returns a failed node to service with cold caches.
func (e *Engine) repair(k core.NodeID) {
	n := e.nodes[k]
	if !n.failed {
		return
	}
	if e.scaler != nil && e.scaler.parked[k] {
		// The slot is parked by the autoscaler, not crashed; only a
		// scale-up decision may return it to service.
		return
	}
	n.failed = false
	e.head.MarkRepaired(k, e.sim.Now())
	e.report.Recovery.NodeRepaired(int(k), e.sim.Now())
	e.emit(trace.Event{Kind: trace.NodeRepair, Node: k})
}

// ScenarioEngineConfig builds the engine configuration for a Table II
// scenario under the given scheduler: the library is decomposed per the
// scheduler's policy, the cost model matches the scenario's testbed, and
// caches start warm. Callers may adjust the result (tracing, node-model
// extensions) before New.
func ScenarioEngineConfig(cfg workload.ScenarioConfig, sched core.Scheduler, jitter float64) Config {
	var policy volume.Decomposition = volume.MaxChunk{Chkmax: cfg.Chkmax}
	if o, ok := sched.(core.DecompositionOverrider); ok {
		policy = o.Decomposition(cfg.Nodes)
	}
	model := core.System2CostModel()
	if cfg.System1 {
		model = core.System1CostModel()
	}
	return Config{
		Nodes:     cfg.Nodes,
		MemQuota:  cfg.MemQuota,
		Model:     model,
		Scheduler: sched,
		Library:   cfg.Library(policy),
		Jitter:    jitter,
		Seed:      int64(cfg.ID) * 7919,
		Preload:   true,
	}
}

// RunScenario is the one-call harness the experiments and benchmarks use:
// build the library with the scheduler's decomposition, wire the engine, and
// play the scenario's workload.
func RunScenario(cfg workload.ScenarioConfig, sched core.Scheduler, jitter float64) *metrics.Report {
	eng := New(ScenarioEngineConfig(cfg, sched, jitter))
	wl := workload.Generate(cfg.Spec)
	return eng.Run(wl, 0)
}
