// Package qos is the multi-tenant quality-of-service layer shared by the
// live service head and the DES simulator — the same policy-layer pattern
// as internal/core/replication.go, so published simulator figures predict
// live-head behavior. It has three parts:
//
//  1. Admission control: per-tenant token buckets, one per QoS class.
//     Interactive work carries a latency SLO; batch work is best-effort.
//     Every arriving job gets an explicit core.Verdict — Admitted,
//     Throttled (admitted against borrowed future tokens), Rejected, or
//     ShedStale.
//  2. Weighted fair queuing: tenant queues served deficit-round-robin
//     (drr.go) wait in front of the head's backlog, releasing jobs to the
//     scheduler in fair order while interactive frames are still always
//     released first.
//  3. SLO-driven degradation ladder (overload.go): under sustained SLO
//     breach the controller steps through halve-batch → half-resolution →
//     shed-stale-frames → reject-new-sessions, recovering in reverse.
//
// All decisions are functions of virtual time (units.Time) and the arrival
// sequence only — no wall clock, no map-iteration order — so simulator
// results are bit-reproducible across runs and worker counts.
package qos

import (
	"sort"
	"sync"

	"vizsched/internal/core"
	"vizsched/internal/metrics"
	"vizsched/internal/units"
)

// Config parameterizes the QoS layer. The zero value of any field selects
// the default noted on it; rates <= 0 mean that class is unmetered.
type Config struct {
	// InteractiveRate / InteractiveBurst meter each tenant's interactive
	// admissions (jobs/s and bucket capacity). Rate <= 0 disables metering
	// for the class; Burst <= 0 defaults to one second of rate.
	InteractiveRate  float64
	InteractiveBurst float64
	// BatchRate / BatchBurst meter batch admissions the same way.
	BatchRate  float64
	BatchBurst float64
	// ThrottleWindow bounds throttle debt: a tenant may borrow up to this
	// much future refill before admissions turn into rejections. Default
	// 500ms.
	ThrottleWindow units.Duration

	// Quantum is the DRR quantum in task units per service visit (default
	// 8); Weights gives tenants unequal shares (default 1 each).
	Quantum int
	Weights map[core.TenantID]int

	// InteractiveSLO is the latency target driving the degradation ladder
	// (default 100ms). Window, BreachFraction, StepWindows, RecoverWindows
	// tune the ladder's sampling and hysteresis (defaults 250ms, 0.05, 2,
	// 8): escalate after StepWindows consecutive windows with more than
	// BreachFraction of interactive completions over the SLO; recover one
	// rung after RecoverWindows consecutive clean windows.
	InteractiveSLO units.Duration
	Window         units.Duration
	BreachFraction float64
	StepWindows    int
	RecoverWindows int

	// ActionDepth bounds unfinished interactive frames per (tenant, action)
	// while the shed-stale rung is active (default 3). AlwaysShedStale
	// applies stale-frame shedding at every rung — the head's legacy
	// DropStale behavior expressed through the QoS layer.
	ActionDepth     int
	AlwaysShedStale bool
}

// DefaultConfig returns a config tuned for the scenario-scale clusters the
// repo's binaries run: generous per-tenant rates that only bite under real
// contention, paper-flavored 100ms interactive SLO.
func DefaultConfig() *Config {
	return &Config{
		InteractiveRate: 200, InteractiveBurst: 60,
		BatchRate: 50, BatchBurst: 100,
	}
}

// withDefaults fills zero fields in a copy.
func (c Config) withDefaults() Config {
	if c.InteractiveRate > 0 && c.InteractiveBurst <= 0 {
		c.InteractiveBurst = c.InteractiveRate
	}
	if c.BatchRate > 0 && c.BatchBurst <= 0 {
		c.BatchBurst = c.BatchRate
	}
	if c.ThrottleWindow <= 0 {
		c.ThrottleWindow = 500 * units.Millisecond
	}
	if c.Quantum <= 0 {
		c.Quantum = 8
	}
	if c.InteractiveSLO <= 0 {
		c.InteractiveSLO = 100 * units.Millisecond
	}
	if c.Window <= 0 {
		c.Window = 250 * units.Millisecond
	}
	if c.BreachFraction <= 0 {
		c.BreachFraction = 0.05
	}
	if c.StepWindows <= 0 {
		c.StepWindows = 2
	}
	if c.RecoverWindows <= 0 {
		c.RecoverWindows = 8
	}
	if c.ActionDepth <= 0 {
		c.ActionDepth = 3
	}
	return c
}

// sessionKey identifies one stream of related jobs for session rejection
// and in-flight frame depth accounting.
type sessionKey struct {
	tenant core.TenantID
	action core.ActionID
}

// tenantAccount is the controller's per-tenant state: buckets + counters.
type tenantAccount struct {
	inter, batch *TokenBucket
	issued       int64
	admitted     int64
	throttled    int64
	rejected     int64
	shed         int64
	completed    int64
	failed       int64
	latency      metrics.Histogram
}

// Controller is the QoS layer's front door: the core.Gate of both planes'
// core.Backlog, which calls Admit, the Pop methods and the queue accessors;
// the dispatcher (sim engine or head loop) calls Observe and Forget; stats
// exporters call Outcome and the gauge accessors concurrently, so all state
// is mutex-guarded. The mutex is uncontended in the simulator (single
// goroutine) and cheap next to a render in the live head.
type Controller struct {
	mu       sync.Mutex
	cfg      Config
	queue    *FairQueue
	ladder   *Overload
	tenants  map[core.TenantID]*tenantAccount
	sessions map[sessionKey]struct{}
	inflight map[sessionKey]int
}

// NewController builds a controller from cfg (nil selects DefaultConfig).
func NewController(cfg *Config) *Controller {
	if cfg == nil {
		cfg = DefaultConfig()
	}
	c := cfg.withDefaults()
	return &Controller{
		cfg:      c,
		queue:    NewFairQueue(c.Quantum, c.Weights),
		ladder:   newOverload(&c),
		tenants:  make(map[core.TenantID]*tenantAccount),
		sessions: make(map[sessionKey]struct{}),
		inflight: make(map[sessionKey]int),
	}
}

func (c *Controller) account(t core.TenantID) *tenantAccount {
	ta := c.tenants[t]
	if ta == nil {
		ta = &tenantAccount{}
		if c.cfg.InteractiveRate > 0 {
			ta.inter = NewTokenBucket(c.cfg.InteractiveRate, c.cfg.InteractiveBurst)
		}
		if c.cfg.BatchRate > 0 {
			ta.batch = NewTokenBucket(c.cfg.BatchRate, c.cfg.BatchBurst)
		}
		c.tenants[t] = ta
	}
	return ta
}

// Admit decides an arriving job's fate at virtual time now and, when the
// verdict Entered(), places it in the fair queue. The returned victim is
// non-nil when admitting this frame superseded an older queued frame of
// the same action (stale-frame shed): the victim has been removed from the
// queue and accounted; the caller must fail it back to its client. A frame
// that is not admitted supersedes nothing.
func (c *Controller) Admit(j *core.Job, now units.Time) (core.Verdict, *core.Job) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ta := c.account(j.Tenant)
	ta.issued++
	key := sessionKey{j.Tenant, j.Action}

	// Rung 4: refuse jobs from sessions we have never seen. Established
	// sessions keep flowing (degraded) — breaking mid-interaction is worse
	// than refusing a newcomer.
	if _, known := c.sessions[key]; !known {
		if c.ladder.RejectSessions() {
			ta.rejected++
			return core.Rejected, nil
		}
		c.sessions[key] = struct{}{}
	}

	var victim *core.Job
	if j.Class == core.Interactive && (c.cfg.AlwaysShedStale || c.ladder.ShedStale()) {
		// Rung 3: a newer frame supersedes an older queued frame of the
		// same action; with nothing queued to supersede, bound in-flight
		// depth by dropping the arrival itself.
		if victim = c.queue.StaleInteractive(j); victim == nil && c.inflight[key] >= c.cfg.ActionDepth {
			ta.shed++
			return core.ShedStale, nil
		}
	}

	dec := core.Admitted
	bucket, rate := ta.inter, c.cfg.InteractiveRate
	cost := 1.0
	if j.Class == core.Batch {
		bucket, rate = ta.batch, c.cfg.BatchRate
		cost = c.ladder.BatchCostFactor() // rung 1: batch pays double
	}
	if bucket != nil {
		maxDebt := rate * c.cfg.ThrottleWindow.Seconds()
		switch {
		case bucket.Take(now, cost):
			dec = core.Admitted
		case bucket.TakeDebt(now, cost, maxDebt):
			dec = core.Throttled
		default:
			ta.rejected++
			return core.Rejected, nil
		}
	}
	if dec == core.Throttled {
		ta.throttled++
	} else {
		ta.admitted++
	}
	if victim != nil {
		c.queue.Remove(victim)
		c.account(victim.Tenant).shed++
		c.decInflight(sessionKey{victim.Tenant, victim.Action})
	}
	c.queue.Push(j)
	if j.Class == core.Interactive {
		c.inflight[key]++
	}
	return dec, victim
}

func (c *Controller) decInflight(key sessionKey) {
	if n := c.inflight[key]; n > 1 {
		c.inflight[key] = n - 1
	} else {
		delete(c.inflight, key)
	}
}

// Observe records a job completion with its end-to-end latency and drives
// the ladder. It returns whether the ladder changed level and the level now
// in force, so the caller can emit a Degrade trace event.
func (c *Controller) Observe(j *core.Job, lat units.Duration, now units.Time) (bool, Level) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ta := c.account(j.Tenant)
	ta.completed++
	ta.latency.Add(lat)
	if j.Class == core.Interactive {
		c.decInflight(sessionKey{j.Tenant, j.Action})
		return c.ladder.Observe(lat, now), c.ladder.Level()
	}
	return c.ladder.Tick(now), c.ladder.Level()
}

// Forget accounts a job that was admitted but failed before completing
// (crash out of retries, finalize error) so session depth does not leak.
func (c *Controller) Forget(j *core.Job) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.account(j.Tenant).failed++
	if j.Class == core.Interactive {
		c.decInflight(sessionKey{j.Tenant, j.Action})
	}
}

// ShedQueued removes a still-queued job and accounts it as shed — the
// queue bound of core.Backlog.Admit expressed through the controller.
func (c *Controller) ShedQueued(j *core.Job) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.queue.Remove(j) {
		return false
	}
	c.account(j.Tenant).shed++
	if j.Class == core.Interactive {
		c.decInflight(sessionKey{j.Tenant, j.Action})
	}
	return true
}

// PopInteractive / PopBatch / QueueLen / OldestInteractive expose the fair
// queue to core.Backlog under the controller's lock.
func (c *Controller) PopInteractive(dst []*core.Job) []*core.Job {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queue.PopInteractive(dst)
}

func (c *Controller) PopBatch(dst []*core.Job, max int) []*core.Job {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queue.PopBatch(dst, max)
}

func (c *Controller) QueueLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queue.Len()
}

// BatchBacklog returns the number of batch jobs waiting in the fair queue —
// the figure a shard advertises on the donation board (§5.11): donatable
// work is exactly the queued batch backlog, since interactive frames are
// session-affine and never leave their home shard.
func (c *Controller) BatchBacklog() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queue.BatchLen()
}

func (c *Controller) OldestInteractive() *core.Job {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queue.OldestInteractive()
}

// Level returns the ladder's current rung.
func (c *Controller) Level() Level {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ladder.Level()
}

// ResolutionScale returns the interactive linear resolution factor in
// force (1 when not degraded).
func (c *Controller) ResolutionScale() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ladder.ResolutionScale()
}

// SLO returns the interactive latency target the ladder (and the
// autoscaler's headroom signal) runs against.
func (c *Controller) SLO() units.Duration { return c.cfg.InteractiveSLO }

// TenantP95 is one tenant's observed end-to-end latency p95 — the raw
// material of the SLO-headroom gauges exported on /metrics and sampled by
// the autoscaler.
type TenantP95 struct {
	Tenant core.TenantID
	P95    units.Duration
}

// TenantP95s returns each known tenant's latency p95, sorted by tenant ID
// so iteration is deterministic. Tenants with no completions yet report a
// zero p95 (callers treat that as full headroom).
func (c *Controller) TenantP95s() []TenantP95 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]TenantP95, 0, len(c.tenants))
	for id, ta := range c.tenants {
		out = append(out, TenantP95{Tenant: id, P95: ta.latency.P95()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// History returns the ladder transitions recorded so far.
func (c *Controller) History() []LevelChange {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]LevelChange(nil), c.ladder.history...)
}

// Outcome snapshots the run's QoS accounting as metrics types: aggregate
// decision counters, ladder activity, and the per-tenant breakdown sorted
// by tenant id.
func (c *Controller) Outcome() *metrics.QoSOutcome {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := &metrics.QoSOutcome{
		LevelChanges: int64(len(c.ladder.history)),
		FinalLevel:   int(c.ladder.Level()),
	}
	for _, ch := range c.ladder.history {
		if int(ch.Level) > out.MaxLevel {
			out.MaxLevel = int(ch.Level)
		}
	}
	ids := make([]int, 0, len(c.tenants))
	for id := range c.tenants {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		ta := c.tenants[core.TenantID(id)]
		out.Admitted += ta.admitted
		out.Throttled += ta.throttled
		out.Rejected += ta.rejected
		out.Shed += ta.shed
		out.Tenants = append(out.Tenants, metrics.TenantQoS{
			Tenant:    id,
			Issued:    ta.issued,
			Admitted:  ta.admitted,
			Throttled: ta.throttled,
			Rejected:  ta.rejected,
			ShedTotal: ta.shed,
			Completed: ta.completed,
			Failed:    ta.failed,
			Latency:   ta.latency.Summarize(),
		})
	}
	return out
}

// Jain returns Jain's fairness index over per-tenant completed jobs.
func (c *Controller) Jain() float64 { return c.Outcome().Jain() }
