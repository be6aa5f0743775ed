package sim

import (
	"fmt"
	"strings"

	"vizsched/internal/core"
	"vizsched/internal/des"
	"vizsched/internal/metrics"
	"vizsched/internal/shard"
	"vizsched/internal/units"
	"vizsched/internal/workload"
)

// ShardedEngine is the multi-head control plane (§5.11): Config.Shards
// independent dispatchers, each a full Engine over a contiguous partition
// of the nodes, sharing one discrete-event clock. Sessions route to shards
// by consistent hash (tenant affinity first, action otherwise), so every
// frame of a session meets the same head and no session is ever owned by
// two shards. The shards coordinate only through the shared chunk
// directory — published locality facts (Estimate[c], residency, home sets)
// and the donation board — never through each other's tables.
//
// What sharding buys is modeled explicitly: each shard's control plane is
// a serial resource priced by HeadCost. Admissions, dispatches, and
// completion processing extend the shard's ctlFree horizon; an arrival
// finding the control plane busy waits its turn. One overloaded head
// saturates at 1/Admit admissions per second — N shards admit N× that,
// which is the near-linear session-throughput scaling the shardsweep
// experiment measures.
//
// Determinism: all shards share one des.Simulator (a single event heap
// with FIFO tie-breaking at equal timestamps), every cross-shard decision
// (routing, donation) is a pure function of virtual-time state, and no
// code path reads the wall clock, so a sharded run is bit-reproducible at
// any host parallelism.
type ShardedEngine struct {
	cfg   Config
	sim   *des.Simulator
	ring  *shard.Ring
	dir   *shard.Directory
	parts []shard.Partition
	subs  []*Engine
	cost  shard.HeadCost

	// ctlFree[s] is the virtual time at which shard s's serial control
	// loop is next free. Admission work queues behind it; data-plane
	// events never do (rendering does not wait for the head).
	ctlFree []units.Time

	// owners records each session key's admitting shard — the runtime
	// check behind the "no session owned by two shards" invariant.
	owners     map[uint64]int
	violations int

	admitted []int64
	donated  int64
}

// NewSharded validates the configuration and builds a sharded engine.
// cfg.Shards may be 1: that is the single-head baseline under the same
// control-plane cost model, which is what sharding speedups are measured
// against.
func NewSharded(cfg Config) *ShardedEngine {
	s := cfg.Shards
	if s <= 0 {
		s = 1
	}
	if cfg.NewScheduler == nil {
		panic("sim: NewSharded requires Config.NewScheduler (one scheduler instance per shard)")
	}
	if cfg.Autoscale != nil {
		// Per-shard fleets would need cross-shard victim coordination and a
		// shared node-hours bill; not wired yet.
		panic("sim: Config.Autoscale is incompatible with sharded runs (not wired yet)")
	}
	if cfg.Nodes < s {
		panic(fmt.Sprintf("sim: %d shards need at least %d nodes, have %d", s, s, cfg.Nodes))
	}
	cost := shard.DefaultHeadCost()
	if cfg.HeadCost != nil {
		cost = *cfg.HeadCost
	}
	k := 1
	if cfg.Replicas > 1 {
		k = cfg.Replicas
	}
	se := &ShardedEngine{
		cfg:      cfg,
		sim:      des.New(),
		ring:     shard.NewRing(s),
		dir:      shard.NewDirectory(s, k),
		parts:    shard.SplitNodes(cfg.Nodes, s),
		cost:     cost,
		ctlFree:  make([]units.Time, s),
		owners:   make(map[uint64]int),
		admitted: make([]int64, s),
	}
	for i := 0; i < s; i++ {
		sub := cfg
		sub.Nodes = se.parts[i].Count
		sub.Scheduler = cfg.NewScheduler()
		if sub.Scheduler == nil {
			panic("sim: Config.NewScheduler returned nil")
		}
		sub.Shards = 0
		sub.NewScheduler = nil
		sub.HeadCost = nil
		sub.Donation = false
		sub.Failures = nil // injected globally, translated to shard-local IDs
		// Distinct jitter/eviction streams per shard: one cluster's noise
		// must not be a copy of another's.
		sub.Seed = cfg.Seed + int64(i)*1_000_003
		eng := New(sub)
		eng.sim = se.sim // one shared clock and event heap for all shards
		// Shard-disjoint job ID spaces: donation moves jobs between shards,
		// and an ID must name one job across the run's trace.
		eng.nextJob = core.JobID(i) << 40
		eng.head.SetEstimateSource(se.dir.Estimate)
		eng.head.SetDirectoryWriter(shardWriter{shard.Writer{Dir: se.dir, First: se.parts[i].Start, Stride: 1}, se, i})
		se.subs = append(se.subs, eng)
	}
	return se
}

// shardWriter is shard i's directory write side: processing a completion
// also occupies the shard's serial control loop for HeadCost.Complete.
type shardWriter struct {
	shard.Writer
	se *ShardedEngine
	i  int
}

func (w shardWriter) Publish(tables *core.HeadState, res core.TaskResult) {
	w.se.extendCtl(w.i, w.se.sim.Now(), w.se.cost.Complete)
	w.Writer.Publish(tables, res)
}

// Ring exposes the session-routing ring.
func (se *ShardedEngine) Ring() *shard.Ring { return se.ring }

// Directory exposes the shared chunk directory.
func (se *ShardedEngine) Directory() *shard.Directory { return se.dir }

// extendCtl occupies shard s's serial control loop for d more virtual time
// starting no earlier than now.
func (se *ShardedEngine) extendCtl(s int, now units.Time, d units.Duration) {
	if d <= 0 {
		return
	}
	if se.ctlFree[s] < now {
		se.ctlFree[s] = now
	}
	se.ctlFree[s] = se.ctlFree[s].Add(d)
}

// Run plays the workload to the horizon (zero selects the workload's own
// length) across all shards and returns the merged report.
func (se *ShardedEngine) Run(wl *workload.Schedule, horizon units.Time) *ShardedReport {
	if horizon <= 0 {
		horizon = wl.Length
	}
	streamArrivals(se.sim, wl.Requests, func(req workload.Request) {
		se.admit(se.ring.Owner(req.Tenant, req.Action), req)
	})
	for i, sub := range se.subs {
		if sub.cfg.Scheduler.Trigger() == core.Periodic {
			i := i
			se.sim.Every(sub.cfg.Scheduler.Cycle(), func(d *des.Simulator) { se.tick(i) })
		}
	}
	if se.cfg.Donation && len(se.subs) > 1 {
		// Every scheduler cycle, registered after every shard's tick: at
		// equal timestamps the FIFO tie-break runs donation after the
		// owners have scheduled, so a donor only gives away work its own
		// cycle left queued.
		se.sim.Every(core.CycleOf(se.subs[0].cfg.Scheduler), func(d *des.Simulator) { se.donate() })
	}
	for _, f := range se.cfg.Failures {
		se.injectGlobal(f)
	}
	for _, sub := range se.subs {
		sub.report.Horizon = horizon
	}
	se.sim.Run(horizon)
	for _, sub := range se.subs {
		sub.finish(horizon)
	}
	// Like a shard's head tables, the cross-shard invariants are asserted,
	// not reported: a violation is a bug.
	if err := se.InvariantCheck(); err != nil {
		panic(fmt.Sprintf("sim: sharded run ended with %v", err))
	}
	return se.Report()
}

// admit runs at a request's arrival: the owning shard's serial control
// loop admits it when free, charging Admit. The job's issue time stays the
// arrival time, so admission queueing delay is charged to the job's
// latency — exactly what a client waiting on a saturated head experiences.
func (se *ShardedEngine) admit(s int, req workload.Request) {
	key := shard.SessionKey(req.Tenant, req.Action)
	if prev, ok := se.owners[key]; ok {
		if prev != s {
			se.violations++
		}
	} else {
		se.owners[key] = s
	}
	now := se.sim.Now()
	free := se.ctlFree[s]
	if free < now {
		free = now
	}
	done := free.Add(se.cost.Admit)
	se.ctlFree[s] = done
	se.admitted[s]++
	sub := se.subs[s]
	if done == now {
		se.deliver(sub, req, now)
		return
	}
	se.sim.At(done, func(d *des.Simulator) { se.deliver(sub, req, now) })
}

// deliver hands an admitted request to its shard (or defers it through a
// shard-local head outage, mirroring Engine.arrive).
func (se *ShardedEngine) deliver(sub *Engine, req workload.Request, issued units.Time) {
	if sub.headDown {
		sub.deferred = append(sub.deferred, req)
		sub.report.Recovery.ArrivalDeferred()
		return
	}
	sub.admitArrival(req, issued)
}

// tick runs shard i's periodic scheduler cycle and charges the dispatch
// work to its control loop. Cycles are never skipped — a busy control
// loop delays admissions, not scheduling, matching a head that always
// runs its λ cycle but works through its mailbox serially.
func (se *ShardedEngine) tick(i int) {
	sub := se.subs[i]
	before := sub.report.JobsScheduled
	sub.invokeScheduler()
	if d := sub.report.JobsScheduled - before; d > 0 {
		se.extendCtl(i, se.sim.Now(), se.cost.Dispatch*units.Duration(d))
	}
}

// idleExecutors counts shard i's free slots on nodes with nothing queued —
// the donation board's advertised capacity. A shard with any queued work of
// its own advertises zero: the ε-guard keeps donation strictly
// work-conserving.
func (se *ShardedEngine) idleExecutors(i int) int {
	sub := se.subs[i]
	if sub.backlog.Len() > 0 || sub.headDown {
		return 0
	}
	idle := 0
	for _, n := range sub.nodes {
		if !n.failed && !n.stalled && !n.partitioned && n.ready.Len() == 0 {
			idle += sub.slots - len(n.order)
		}
	}
	return idle
}

// donate is the cross-shard work-donation cycle: every shard advertises
// its posture, then each idle shard (in shard order, so the round is
// deterministic) adopts up to its idle capacity in queued batch jobs from
// the hottest other shard: its oldest unstarted batch jobs, or under QoS
// those its fair queue pops, so the donated set is exactly the next jobs
// deficit-round-robin would have released — per-tenant order is preserved
// by construction.
// Interactive work never moves: its session owner keeps its cache
// affinity.
func (se *ShardedEngine) donate() {
	now := se.sim.Now()
	for i := range se.subs {
		se.dir.Advertise(i, se.idleExecutors(i), se.subs[i].backlog.UnstartedBatch())
	}
	for i := range se.subs {
		idle := se.idleExecutors(i)
		if idle == 0 || se.subs[i].backlog.UnstartedBatch() > 0 {
			continue
		}
		donor, backlog, ok := se.dir.Hottest(i)
		if !ok {
			continue
		}
		n := idle
		if n > backlog {
			n = backlog
		}
		jobs := se.subs[donor].backlog.TakeUnstartedBatch(n)
		if len(jobs) == 0 {
			continue
		}
		adoptee := se.subs[i]
		for _, j := range jobs {
			adoptee.backlog.Push(j)
		}
		se.dir.NoteDonation(len(jobs))
		se.donated += int64(len(jobs))
		// Moving work is dispatch-shaped control work on both loops.
		se.extendCtl(i, now, se.cost.Dispatch*units.Duration(len(jobs)))
		se.extendCtl(donor, now, se.cost.Dispatch*units.Duration(len(jobs)))
		se.dir.Advertise(donor, se.idleExecutors(donor), se.subs[donor].backlog.UnstartedBatch())
		if adoptee.cfg.Scheduler.Trigger() == core.OnArrival {
			adoptee.invokeScheduler()
		}
	}
}

// injectGlobal translates a cluster-global failure to its owning shard.
// Head-targeted faults (FaultHeadCrash) take down shard 0's control plane;
// node faults follow the node's partition.
func (se *ShardedEngine) injectGlobal(f Failure) {
	if f.Kind == FaultHeadCrash {
		se.subs[0].inject(f)
		return
	}
	g := int(f.Node)
	for i, p := range se.parts {
		if g >= p.Start && g < p.Start+p.Count {
			f.Node = core.NodeID(g - p.Start)
			se.subs[i].inject(f)
			return
		}
	}
	panic(fmt.Sprintf("sim: failure targets unknown node %d", g))
}

// InvariantCheck verifies the cross-shard invariants after (or during) a
// run: every session stayed with its admitting shard, every shard's derived
// head state matches its tables, and the shared directory is structurally
// consistent (home sets ≤ k, no duplicates, all node references within the
// cluster). A nil error is the property the sweep and the test suite assert.
func (se *ShardedEngine) InvariantCheck() error {
	if se.violations > 0 {
		return fmt.Errorf("sim: %d session(s) admitted by more than one shard", se.violations)
	}
	for key, s := range se.owners {
		if want := se.ring.OwnerKey(key); want != s {
			return fmt.Errorf("sim: session key %x admitted by shard %d, ring owner %d", key, s, want)
		}
	}
	for i, sub := range se.subs {
		if err := sub.head.Validate(); err != nil {
			return fmt.Errorf("sim: shard %d: %w", i, err)
		}
	}
	return se.dir.Validate(se.cfg.Nodes)
}

// Report merges the per-shard outcomes.
func (se *ShardedEngine) Report() *ShardedReport {
	r := &ShardedReport{
		Shards:    make([]*metrics.Report, len(se.subs)),
		Admitted:  append([]int64(nil), se.admitted...),
		Donated:   se.donated,
		Directory: se.dir.Snapshot(),
	}
	for i, sub := range se.subs {
		r.Shards[i] = sub.report
	}
	return r
}

// ShardedReport aggregates a sharded run: the per-shard metrics reports
// plus the cross-shard facts (admissions per shard, donated jobs, and the
// directory's counters).
type ShardedReport struct {
	Shards    []*metrics.Report
	Admitted  []int64
	Donated   int64
	Directory shard.Stats
}

// JobsIssued sums issued jobs across shards.
func (r *ShardedReport) JobsIssued() int64 {
	var n int64
	for _, s := range r.Shards {
		n += s.Interactive.Issued + s.Batch.Issued
	}
	return n
}

// JobsCompleted sums completed jobs across shards — the sweep's session
// throughput numerator.
func (r *ShardedReport) JobsCompleted() int64 {
	var n int64
	for _, s := range r.Shards {
		n += s.Interactive.Completed + s.Batch.Completed
	}
	return n
}

// InteractiveCompleted sums completed interactive jobs across shards.
func (r *ShardedReport) InteractiveCompleted() int64 {
	var n int64
	for _, s := range r.Shards {
		n += s.Interactive.Completed
	}
	return n
}

// MeanInteractiveLatency is the completion-weighted mean interactive job
// latency across shards.
func (r *ShardedReport) MeanInteractiveLatency() units.Duration {
	var n int64
	var sum float64
	for _, s := range r.Shards {
		n += s.Interactive.Latency.N
		sum += float64(s.Interactive.Latency.Mean()) * float64(s.Interactive.Latency.N)
	}
	if n == 0 {
		return 0
	}
	return units.Duration(sum / float64(n))
}

// Loads sums disk loads across shards.
func (r *ShardedReport) Loads() int64 {
	var n int64
	for _, s := range r.Shards {
		n += s.Loads
	}
	return n
}

// String summarizes the run for logs.
func (r *ShardedReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "shards=%d completed=%d/%d donated=%d dir{chunks=%d hits=%d/%d}",
		len(r.Shards), r.JobsCompleted(), r.JobsIssued(), r.Donated,
		r.Directory.Chunks, r.Directory.Hits, r.Directory.Lookups)
	return b.String()
}
