package qos

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"vizsched/internal/core"
	"vizsched/internal/units"
)

// mkJob builds a minimal job for queue/controller tests; tasks sets the DRR
// cost (its claim on the batch window).
func mkJob(id int, tenant core.TenantID, class core.Class, action core.ActionID, tasks int, issued units.Time) *core.Job {
	j := &core.Job{
		ID:     core.JobID(id),
		Class:  class,
		Action: action,
		Tenant: tenant,
		Issued: issued,
	}
	j.Tasks = make([]core.Task, tasks)
	for i := range j.Tasks {
		j.Tasks[i] = core.Task{Job: j, Index: i}
	}
	j.Remaining = tasks
	return j
}

// --- token bucket edges -----------------------------------------------------

func TestQoSTokenBucketZeroRate(t *testing.T) {
	// Rate <= 0 never refills: only the initial burst is ever available.
	b := NewTokenBucket(0, 3)
	now := units.Time(0)
	for i := 0; i < 3; i++ {
		if !b.Take(now, 1) {
			t.Fatalf("take %d of initial burst failed", i)
		}
	}
	if b.Take(now.Add(units.Duration(1e12)), 1) {
		t.Fatal("zero-rate bucket refilled")
	}
	if got := b.Tokens(now.Add(units.Duration(2e12))); got != 0 {
		t.Fatalf("zero-rate balance = %v, want 0", got)
	}
}

func TestQoSTokenBucketBurstOne(t *testing.T) {
	// Burst below 1 is floored at 1 so a configured tenant can always make
	// progress; the bucket then strictly alternates take/deny at rate 1/s.
	b := NewTokenBucket(1, 0.25)
	if b.Burst != 1 {
		t.Fatalf("burst = %v, want floor at 1", b.Burst)
	}
	now := units.Time(0)
	if !b.Take(now, 1) {
		t.Fatal("first take from full bucket failed")
	}
	if b.Take(now, 1) {
		t.Fatal("second immediate take should fail at burst=1")
	}
	now = now.Add(units.Duration(1e9)) // +1s = +1 token
	if !b.Take(now, 1) {
		t.Fatal("take after full refill interval failed")
	}
	// Time moving backwards must not mint tokens.
	if b.Take(units.Time(0), 1) {
		t.Fatal("backwards time refilled the bucket")
	}
}

func TestQoSTokenBucketDebt(t *testing.T) {
	b := NewTokenBucket(10, 2)
	now := units.Time(0)
	if !b.Take(now, 2) {
		t.Fatal("draining the burst failed")
	}
	// Empty bucket: plain Take fails, debt admits until the ceiling.
	if b.Take(now, 1) {
		t.Fatal("take from empty bucket succeeded")
	}
	if !b.TakeDebt(now, 1, 2) || !b.TakeDebt(now, 1, 2) {
		t.Fatal("debt takes within ceiling failed")
	}
	if b.TakeDebt(now, 1, 2) {
		t.Fatal("debt take past ceiling succeeded")
	}
	if got := b.Tokens(now); got != -2 {
		t.Fatalf("balance = %v, want -2", got)
	}
	// Refill pays the debt down before new admissions succeed.
	now = now.Add(units.Duration(300 * 1e6)) // +0.3s ⇒ +3 tokens ⇒ balance 1
	if !b.Take(now, 1) {
		t.Fatal("take after debt repaid failed")
	}
}

// --- DRR fair queue ---------------------------------------------------------

// TestDRRStarvationFreedom is a property test in the invariants style: random
// multi-tenant push/pop interleavings must never strand a job, must preserve
// intra-tenant FIFO order, and must be bit-deterministic for a given seed.
func TestDRRStarvationFreedom(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		order1 := drrRun(t, seed)
		order2 := drrRun(t, seed)
		if len(order1) != len(order2) {
			t.Fatalf("seed %d: run lengths differ: %d vs %d", seed, len(order1), len(order2))
		}
		for i := range order1 {
			if order1[i] != order2[i] {
				t.Fatalf("seed %d: pop order diverged at %d: %v vs %v", seed, i, order1[i], order2[i])
			}
		}
	}
}

// drrRun drives one randomized scenario and checks the invariants; it
// returns the pop order for the determinism cross-check.
func drrRun(t *testing.T, seed int64) []core.JobID {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tenants := 2 + rng.Intn(5)
	weights := make(map[core.TenantID]int)
	for k := 1; k <= tenants; k++ {
		weights[core.TenantID(k)] = 1 + rng.Intn(3)
	}
	q := NewFairQueue(1+rng.Intn(12), weights)

	pushed := make(map[core.JobID]*core.Job)
	lastPopped := make(map[core.TenantID]core.JobID) // FIFO check per tenant+class
	var order []core.JobID
	nextID := 1

	pop := func() {
		var out []*core.Job
		out = q.PopInteractive(out)
		out = q.PopBatch(out, 1+rng.Intn(8))
		for _, j := range out {
			if _, ok := pushed[j.ID]; !ok {
				t.Fatalf("seed %d: popped job %d twice or never pushed", seed, j.ID)
			}
			delete(pushed, j.ID)
			if j.Class == core.Batch {
				if prev, ok := lastPopped[j.Tenant]; ok && j.ID < prev {
					t.Fatalf("seed %d: tenant %d batch FIFO violated: %d after %d", seed, j.Tenant, j.ID, prev)
				}
				lastPopped[j.Tenant] = j.ID
			}
			order = append(order, j.ID)
		}
	}

	for step := 0; step < 400; step++ {
		switch rng.Intn(4) {
		case 0, 1: // push
			class := core.Batch
			if rng.Intn(3) == 0 {
				class = core.Interactive
			}
			j := mkJob(nextID, core.TenantID(1+rng.Intn(tenants)), class,
				core.ActionID(rng.Intn(3)), 1+rng.Intn(6), units.Time(step))
			nextID++
			pushed[j.ID] = j
			q.Push(j)
		case 2: // pop a window
			pop()
		case 3: // remove a queued job (crash cleanup path); lowest ID so the
			// victim choice itself is deterministic
			var victim *core.Job
			for _, j := range pushed {
				if victim == nil || j.ID < victim.ID {
					victim = j
				}
			}
			if victim != nil && q.Remove(victim) {
				delete(pushed, victim.ID)
			}
		}
	}
	// Drain: every remaining job must come out within a bounded number of
	// passes — the starvation-freedom property.
	for pass := 0; len(pushed) > 0; pass++ {
		if pass > 1000 {
			t.Fatalf("seed %d: %d jobs starved in queue", seed, len(pushed))
		}
		pop()
	}
	if q.Len() != 0 || q.BatchLen() != 0 {
		t.Fatalf("seed %d: queue not empty after drain: len=%d batch=%d", seed, q.Len(), q.BatchLen())
	}
	return order
}

// TestDRRWeightedShare checks that two backlogged tenants split the batch
// window in proportion to their weights.
func TestDRRWeightedShare(t *testing.T) {
	q := NewFairQueue(4, map[core.TenantID]int{1: 1, 2: 3})
	for i := 0; i < 200; i++ {
		q.Push(mkJob(2*i+1, 1, core.Batch, 0, 2, units.Time(i)))
		q.Push(mkJob(2*i+2, 2, core.Batch, 0, 2, units.Time(i)))
	}
	got := q.PopBatch(nil, 100)
	counts := map[core.TenantID]int{}
	for _, j := range got {
		counts[j.Tenant]++
	}
	// Weight ratio 1:3 ⇒ tenant 2 gets ~75 of 100, within one visit's slack.
	if counts[2] < counts[1]*2 {
		t.Fatalf("weighted share not honored: tenant1=%d tenant2=%d", counts[1], counts[2])
	}
	if counts[1] == 0 {
		t.Fatal("low-weight tenant starved outright")
	}
}

// TestDRRInteractiveRoundRobin checks interactive frames drain fully and
// interleave across tenants rather than one tenant's frames always leading.
func TestDRRInteractiveRoundRobin(t *testing.T) {
	q := NewFairQueue(8, nil)
	for i := 0; i < 3; i++ {
		q.Push(mkJob(10+i, 1, core.Interactive, 1, 1, units.Time(i)))
		q.Push(mkJob(20+i, 2, core.Interactive, 2, 1, units.Time(i)))
	}
	got := q.PopInteractive(nil)
	if len(got) != 6 {
		t.Fatalf("drained %d interactive jobs, want 6", len(got))
	}
	// One frame per tenant per round: tenants must alternate.
	for i := 0; i+1 < len(got); i += 2 {
		if got[i].Tenant == got[i+1].Tenant {
			t.Fatalf("round %d served tenant %d twice before the other", i/2, got[i].Tenant)
		}
	}
}

// --- controller -------------------------------------------------------------

// TestQoSAdmissionPartition drives a controller with a bursty tenant and
// verifies every issued job lands in exactly one decision bucket.
func TestQoSAdmissionPartition(t *testing.T) {
	c := NewController(&Config{
		InteractiveRate: 10, InteractiveBurst: 5,
		BatchRate: 4, BatchBurst: 2,
		ThrottleWindow: 500 * units.Millisecond,
	})
	rng := rand.New(rand.NewSource(42))
	now := units.Time(0)
	counts := map[core.Verdict]int64{}
	for i := 1; i <= 500; i++ {
		class := core.Interactive
		if rng.Intn(2) == 0 {
			class = core.Batch
		}
		j := mkJob(i, core.TenantID(1+rng.Intn(3)), class, core.ActionID(rng.Intn(4)), 1, now)
		dec, victim := c.Admit(j, now)
		if victim != nil {
			t.Fatalf("unexpected stale-shed victim at level normal")
		}
		counts[dec]++
		now = now.Add(units.Duration(rng.Int63n(20 * 1e6))) // 0–20ms gaps
	}
	out := c.Outcome()
	var issued, partition int64
	for _, ts := range out.Tenants {
		issued += ts.Issued
		partition += ts.Admitted + ts.Throttled + ts.Rejected + ts.ShedOnArrival()
		if ts.ShedOnArrival() < 0 {
			t.Fatalf("tenant %d negative shed-on-arrival", ts.Tenant)
		}
	}
	if issued != 500 || partition != 500 {
		t.Fatalf("decision partition broken: issued=%d partition=%d", issued, partition)
	}
	if counts[core.Rejected] == 0 || counts[core.Throttled] == 0 {
		t.Fatalf("overload run never throttled/rejected: %v", counts)
	}
	if out.Admitted != counts[core.Admitted] || out.Throttled != counts[core.Throttled] || out.Rejected != counts[core.Rejected] {
		t.Fatalf("outcome aggregates disagree with observed decisions")
	}
}

// TestQoSLadderEngageAndRecover drives the ladder with sustained SLO
// breaches, checks it climbs monotonically one rung at a time with the rung
// behaviors switching on, then feeds clean completions and checks a full
// LIFO recovery to normal.
func TestQoSLadderEngageAndRecover(t *testing.T) {
	cfg := &Config{
		InteractiveRate: 1000, InteractiveBurst: 1000,
		InteractiveSLO: 10 * units.Millisecond,
		Window:         50 * units.Millisecond,
		StepWindows:    2, RecoverWindows: 3,
	}
	c := NewController(cfg)
	now := units.Time(0)
	id := 1
	observe := func(lat units.Duration) {
		j := mkJob(id, 1, core.Interactive, 1, 1, now)
		id++
		if dec, _ := c.Admit(j, now); !dec.Entered() {
			t.Fatalf("admission refused during ladder test: %v", dec)
		}
		c.PopInteractive(nil)
		c.Observe(j, lat, now)
		now = now.Add(5 * units.Millisecond)
	}

	prev := LevelNormal
	for step := 0; c.Level() < LevelRejectSessions; step++ {
		if step > 2000 {
			t.Fatal("ladder never reached reject-sessions under sustained breach")
		}
		observe(50 * units.Millisecond) // every completion 5× over SLO
		if l := c.Level(); l != prev {
			if l != prev+1 {
				t.Fatalf("ladder skipped from %v to %v", prev, l)
			}
			prev = l
		}
	}
	if c.ResolutionScale() != 0.5 {
		t.Fatalf("resolution scale = %v at %v, want 0.5", c.ResolutionScale(), c.Level())
	}
	// Rung 4: a brand-new session is refused, the established one still flows.
	newcomer := mkJob(id, 9, core.Interactive, 99, 1, now)
	id++
	if dec, _ := c.Admit(newcomer, now); dec != core.Rejected {
		t.Fatalf("new session at reject-sessions rung: %v, want Rejected", dec)
	}
	// Recovery: clean completions walk back down to normal.
	for step := 0; c.Level() != LevelNormal; step++ {
		if step > 5000 {
			t.Fatalf("ladder stuck at %v during recovery", c.Level())
		}
		observe(1 * units.Millisecond)
	}
	hist := c.History()
	if len(hist) < 8 {
		t.Fatalf("history too short for full engage+recover: %d transitions", len(hist))
	}
	out := c.Outcome()
	if out.MaxLevel != int(LevelRejectSessions) || out.FinalLevel != int(LevelNormal) {
		t.Fatalf("outcome max/final = %d/%d, want 4/0", out.MaxLevel, out.FinalLevel)
	}
}

// TestQoSShedStaleSupersede checks the rung-3 behavior: a newer frame
// supersedes its action's queued frame, and in-flight depth is bounded.
func TestQoSShedStaleSupersede(t *testing.T) {
	c := NewController(&Config{
		InteractiveRate: 1000, InteractiveBurst: 1000,
		AlwaysShedStale: true, ActionDepth: 2,
	})
	now := units.Time(0)
	j1 := mkJob(1, 1, core.Interactive, 7, 1, now)
	j2 := mkJob(2, 1, core.Interactive, 7, 1, now.Add(units.Millisecond))
	if dec, v := c.Admit(j1, now); dec != core.Admitted || v != nil {
		t.Fatalf("first frame: %v victim=%v", dec, v)
	}
	dec, victim := c.Admit(j2, now.Add(units.Millisecond))
	if dec != core.Admitted || victim != j1 {
		t.Fatalf("second frame should supersede first: dec=%v victim=%v", dec, victim)
	}
	if c.QueueLen() != 1 {
		t.Fatalf("queue len = %d after supersede, want 1", c.QueueLen())
	}
	// Dispatch j2 (leaves the queue, stays in flight), then flood the same
	// action: with nothing queued to supersede, depth bounds arrivals.
	c.PopInteractive(nil)
	var sheds int
	for i := 3; i < 10; i++ {
		j := mkJob(i, 1, core.Interactive, 7, 1, now)
		d, v := c.Admit(j, now)
		if d == core.ShedStale {
			sheds++
		} else if d.Entered() && v == nil {
			c.PopInteractive(nil) // dispatched, occupying in-flight depth
		}
	}
	if sheds == 0 {
		t.Fatal("in-flight depth bound never shed an arrival")
	}
	out := c.Outcome()
	if out.Shed != int64(sheds)+1 { // +1 for the superseded j1
		t.Fatalf("outcome shed = %d, want %d", out.Shed, sheds+1)
	}
}

// TestAdmissionRejectedArrivalKeepsQueuedFrame: a frame the bucket refuses
// supersedes nothing. Its action's queued frame stays queued, unshed and in
// flight, and the arrival comes back Rejected with no victim.
func TestAdmissionRejectedArrivalKeepsQueuedFrame(t *testing.T) {
	c := NewController(&Config{
		InteractiveRate: 1, InteractiveBurst: 1, ThrottleWindow: units.Millisecond,
		AlwaysShedStale: true,
	})
	j1 := mkJob(1, 1, core.Interactive, 7, 1, 0)
	j2 := mkJob(2, 1, core.Interactive, 7, 1, 0)
	if dec, v := c.Admit(j1, 0); dec != core.Admitted || v != nil {
		t.Fatalf("first frame: %v victim=%v, want admit and none", dec, v)
	}
	if dec, v := c.Admit(j2, 0); dec != core.Rejected || v != nil {
		t.Fatalf("second frame: %v victim=%v, want reject and none", dec, v)
	}
	if c.QueueLen() != 1 || c.OldestInteractive() != j1 {
		t.Fatalf("queue holds %d jobs, oldest %v; want the first frame alone", c.QueueLen(), c.OldestInteractive())
	}
	if out := c.Outcome(); out.Shed != 0 || out.Rejected != 1 {
		t.Fatalf("outcome shed=%d rejected=%d, want 0 and 1", out.Shed, out.Rejected)
	}
}

// TestQoSExportSessionOrderExtremeIDs: the client picks tenant and action IDs
// (zig-zag varints on the wire), so the snapshot's session order must be a
// total order over every int — a subtracting comparator overflows at the
// extremes and leaves Sessions in map-iteration order.
func TestQoSExportSessionOrderExtremeIDs(t *testing.T) {
	c := NewController(nil)
	ids := []int{math.MinInt, 0, math.MaxInt, -5, 7}
	id := 1
	for _, tenant := range ids {
		for _, action := range ids {
			if dec, _ := c.Admit(mkJob(id, core.TenantID(tenant), core.Interactive, core.ActionID(action), 1, 0), 0); !dec.Entered() {
				t.Fatalf("tenant %d action %d: %v", tenant, action, dec)
			}
			id++
		}
	}
	first := c.Export().Sessions
	if len(first) != len(ids)*len(ids) {
		t.Fatalf("exported %d sessions, want %d", len(first), len(ids)*len(ids))
	}
	for i := 1; i < len(first); i++ {
		a, b := first[i-1], first[i]
		if a.Tenant > b.Tenant || a.Tenant == b.Tenant && a.Action >= b.Action {
			t.Fatalf("sessions %d and %d out of order: %+v then %+v", i-1, i, a, b)
		}
	}
	for run := 0; run < 20; run++ {
		if got := c.Export().Sessions; !reflect.DeepEqual(got, first) {
			t.Fatalf("export %d ordered sessions\n %v\nfirst export\n %v", run, got, first)
		}
	}
}
