package qos

import (
	"cmp"
	"slices"

	"vizsched/internal/core"
	"vizsched/internal/metrics"
	"vizsched/internal/units"
)

// This file serializes the QoS controller's durable state for the head's
// snapshot+journal recovery (DESIGN.md §5.10): token-bucket balances, the
// DRR ring in activation order with its rotor and deficits, the degradation
// ladder's position and hysteresis streaks, session registry, in-flight
// frame depths, and per-tenant accounting. The fair queue's *contents* are
// deliberately absent — queued jobs live in the head's own snapshot (they
// carry request payloads the QoS layer never sees) and re-enter the queue
// through Requeue during recovery, in original admission order, which
// reproduces the queue exactly because Push order is the only queue state.

// TenantState is one tenant's durable QoS state.
type TenantState struct {
	Tenant core.TenantID
	// Bucket balances; the Has* flags distinguish "bucket exists with this
	// state" from "class unmetered".
	HasInter                bool
	InterTokens             float64
	InterLast               units.Time
	InterPrimed             bool
	HasBatch                bool
	BatchTokens             float64
	BatchLast               units.Time
	BatchPrimed             bool
	Issued, Admitted        int64
	Throttled, Rejected     int64
	Shed, Completed, Failed int64
	Latency                 metrics.HistogramDump
}

// SessionState is one known (tenant, action) session and its in-flight
// interactive frame depth.
type SessionState struct {
	Tenant   core.TenantID
	Action   core.ActionID
	Inflight int
}

// RingSlot is one tenant's position in the DRR service ring.
type RingSlot struct {
	Tenant  core.TenantID
	Weight  int
	Deficit int
}

// StateDump is the serializable state of a Controller. All maps are
// flattened in sorted or structural (ring) order, so equal controllers
// produce deep-equal dumps.
type StateDump struct {
	Tenants  []TenantState // sorted by tenant id
	Ring     []RingSlot    // DRR ring in activation order
	Rotor    int
	Sessions []SessionState // sorted by (tenant, action)

	// Ladder state.
	Level    Level
	WinStart units.Time
	Started  bool
	N        int64
	Breaches int64
	BadRun   int
	GoodRun  int
	History  []LevelChange
}

// Export captures the controller's durable state. The fair queue must be
// drained conceptually by the caller (its jobs snapshotted elsewhere);
// Export itself does not touch queue contents.
func (c *Controller) Export() *StateDump {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := &StateDump{
		Rotor:    c.queue.rotor,
		Level:    c.ladder.level,
		WinStart: c.ladder.winStart,
		Started:  c.ladder.started,
		N:        c.ladder.n,
		Breaches: c.ladder.breaches,
		BadRun:   c.ladder.badRun,
		GoodRun:  c.ladder.goodRun,
		History:  slices.Clone(c.ladder.history),
	}
	for _, tq := range c.queue.ring {
		d.Ring = append(d.Ring, RingSlot{Tenant: tq.tenant, Weight: tq.weight, Deficit: tq.deficit})
	}
	ids := make([]core.TenantID, 0, len(c.tenants))
	for id := range c.tenants {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		ta := c.tenants[id]
		ts := TenantState{
			Tenant: id,
			Issued: ta.issued, Admitted: ta.admitted, Throttled: ta.throttled,
			Rejected: ta.rejected, Shed: ta.shed, Completed: ta.completed, Failed: ta.failed,
			Latency: ta.latency.Dump(),
		}
		if ta.inter != nil {
			ts.HasInter = true
			ts.InterTokens, ts.InterLast, ts.InterPrimed = ta.inter.tokens, ta.inter.last, ta.inter.primed
		}
		if ta.batch != nil {
			ts.HasBatch = true
			ts.BatchTokens, ts.BatchLast, ts.BatchPrimed = ta.batch.tokens, ta.batch.last, ta.batch.primed
		}
		d.Tenants = append(d.Tenants, ts)
	}
	for key := range c.sessions {
		d.Sessions = append(d.Sessions, SessionState{Tenant: key.tenant, Action: key.action, Inflight: c.inflight[key]})
	}
	slices.SortFunc(d.Sessions, func(a, b SessionState) int {
		if c := cmp.Compare(a.Tenant, b.Tenant); c != 0 {
			return c
		}
		return cmp.Compare(a.Action, b.Action)
	})
	return d
}

// Restore overwrites the controller's durable state from a dump. The fair
// queue must be empty (a freshly built controller); re-push the snapshotted
// queued jobs through Requeue afterwards, in original admission order.
func (c *Controller) Restore(d *StateDump) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tenants = make(map[core.TenantID]*tenantAccount, len(d.Tenants))
	c.sessions = make(map[sessionKey]struct{}, len(d.Sessions))
	c.inflight = make(map[sessionKey]int)
	c.queue = NewFairQueue(c.cfg.Quantum, c.cfg.Weights)
	for _, slot := range d.Ring {
		tq := &tenantQueue{tenant: slot.Tenant, weight: slot.Weight, deficit: slot.Deficit}
		c.queue.byTenant[slot.Tenant] = tq
		c.queue.ring = append(c.queue.ring, tq)
	}
	c.queue.rotor = d.Rotor
	for _, ts := range d.Tenants {
		ta := &tenantAccount{
			issued: ts.Issued, admitted: ts.Admitted, throttled: ts.Throttled,
			rejected: ts.Rejected, shed: ts.Shed, completed: ts.Completed, failed: ts.Failed,
		}
		ta.latency.Restore(ts.Latency)
		if ts.HasInter {
			ta.inter = NewTokenBucket(c.cfg.InteractiveRate, c.cfg.InteractiveBurst)
			ta.inter.tokens, ta.inter.last, ta.inter.primed = ts.InterTokens, ts.InterLast, ts.InterPrimed
		}
		if ts.HasBatch {
			ta.batch = NewTokenBucket(c.cfg.BatchRate, c.cfg.BatchBurst)
			ta.batch.tokens, ta.batch.last, ta.batch.primed = ts.BatchTokens, ts.BatchLast, ts.BatchPrimed
		}
		c.tenants[ts.Tenant] = ta
	}
	for _, s := range d.Sessions {
		key := sessionKey{s.Tenant, s.Action}
		c.sessions[key] = struct{}{}
		if s.Inflight > 0 {
			c.inflight[key] = s.Inflight
		}
	}
	c.ladder.level = d.Level
	c.ladder.winStart = d.WinStart
	c.ladder.started = d.Started
	c.ladder.n = d.N
	c.ladder.breaches = d.Breaches
	c.ladder.badRun = d.BadRun
	c.ladder.goodRun = d.GoodRun
	c.ladder.history = slices.Clone(d.History)
}

// Requeue re-enters an already-admitted job into the fair queue without
// consuming tokens or touching accounting — the recovery path for jobs that
// were queued when the head crashed. Admission was already journaled; only
// the queue position is being rebuilt.
func (c *Controller) Requeue(j *core.Job) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.queue.Push(j)
}

// Rebind recomputes the session registry and in-flight depths from the
// live (dispatched, incomplete) jobs that survived recovery. The snapshot's
// session view may lag the journal — jobs admitted or completed after the
// snapshot shift the real depths — so the recovered job list, which the
// journal reconstructs exactly, is the authority. Token balances and
// accounting are left as Restore set them.
func (c *Controller) Rebind(jobs []*core.Job) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inflight = make(map[sessionKey]int)
	for _, j := range jobs {
		key := sessionKey{j.Tenant, j.Action}
		c.sessions[key] = struct{}{}
		if j.Class == core.Interactive {
			c.inflight[key]++
		}
	}
}
