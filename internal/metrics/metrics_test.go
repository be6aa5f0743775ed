package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"vizsched/internal/units"
)

func TestRunningStats(t *testing.T) {
	var r Running
	if r.Mean() != 0 {
		t.Error("empty mean not zero")
	}
	r.Add(2 * units.Second)
	r.Add(4 * units.Second)
	r.Add(6 * units.Second)
	if r.N != 3 {
		t.Errorf("N = %d", r.N)
	}
	if r.Mean() != 4*units.Second {
		t.Errorf("Mean = %v", r.Mean())
	}
	if r.Min != 2*units.Second || r.Max != 6*units.Second {
		t.Errorf("Min/Max = %v/%v", r.Min, r.Max)
	}
}

// Property: mean lies within [min, max] for any observation set.
func TestQuickRunningBounds(t *testing.T) {
	f := func(xs []uint32) bool {
		if len(xs) == 0 {
			return true
		}
		var r Running
		for _, x := range xs {
			r.Add(units.Duration(x))
		}
		m := r.Mean()
		return m >= r.Min && m <= r.Max && r.N == int64(len(xs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestActionFramerate(t *testing.T) {
	var a ActionStat
	if a.Framerate() != 0 {
		t.Error("empty action framerate not zero")
	}
	// 4 jobs finishing at 0, 30, 60, 90 ms: (4-1)/(0.09s) = 33.33 fps.
	for i := 0; i < 4; i++ {
		a.Finish(units.Time(units.Duration(i) * 30 * units.Millisecond))
	}
	if f := a.Framerate(); math.Abs(f-33.333) > 0.01 {
		t.Errorf("Framerate = %v, want 33.33", f)
	}
	// Single completion: undefined → zero.
	var b ActionStat
	b.Finish(units.Time(units.Second))
	if b.Framerate() != 0 {
		t.Error("single-job framerate not zero")
	}
}

func TestReportAggregation(t *testing.T) {
	r := NewReport("OURS", 8)
	r.Horizon = units.Time(60 * units.Second)
	r.JobIssued(true)
	r.JobIssued(true)
	r.JobIssued(false)

	r.JobCompleted(true, 1, 0, units.Time(5*units.Millisecond), units.Time(20*units.Millisecond))
	r.JobCompleted(true, 1, units.Time(30*units.Millisecond), units.Time(32*units.Millisecond), units.Time(50*units.Millisecond))
	r.JobCompleted(false, 2, 0, units.Time(units.Second), units.Time(3*units.Second))

	if r.Interactive.Completed != 2 || r.Batch.Completed != 1 {
		t.Errorf("completed = %d/%d", r.Interactive.Completed, r.Batch.Completed)
	}
	if r.Interactive.Latency.Mean() != 20*units.Millisecond {
		t.Errorf("interactive latency = %v", r.Interactive.Latency.Mean())
	}
	if r.Batch.Working.Mean() != 2*units.Second {
		t.Errorf("batch working = %v", r.Batch.Working.Mean())
	}
	if r.ActionCount() != 1 {
		t.Errorf("actions = %d", r.ActionCount())
	}
	// Framerate for action 1: 1 interval of 30ms → 33.3fps.
	if f := r.MeanFramerate(); math.Abs(f-33.333) > 0.01 {
		t.Errorf("mean framerate = %v", f)
	}
}

func TestHitRateAndUtilization(t *testing.T) {
	r := NewReport("X", 2)
	r.Horizon = units.Time(10 * units.Second)
	if r.HitRate() != 0 {
		t.Error("empty hit rate not zero")
	}
	for _, task := range []struct {
		hit       bool
		exec      units.Duration
		evictions int
	}{{true, 2 * units.Second, 0}, {true, 2 * units.Second, 1}, {false, 6 * units.Second, 2}} {
		r.TaskAccess(task.hit)
		r.EvictionsAdd(task.evictions)
		r.BusyAdd(task.exec)
	}
	if hr := r.HitRate(); math.Abs(hr-2.0/3) > 1e-9 {
		t.Errorf("hit rate = %v", hr)
	}
	if r.Evictions != 3 {
		t.Errorf("evictions = %d", r.Evictions)
	}
	// 10 node-seconds busy over 2 nodes × 10 s = 50%.
	if u := r.Utilization(); math.Abs(u-0.5) > 1e-9 {
		t.Errorf("utilization = %v", u)
	}
}

func TestSchedulingCost(t *testing.T) {
	r := NewReport("X", 1)
	if r.AvgSchedCostPerJob() != 0 {
		t.Error("empty cost not zero")
	}
	r.ScheduleCall(100_000, 2) // 100µs for 2 jobs
	r.ScheduleCall(300_000, 2)
	if got := r.AvgSchedCostPerJob(); got != 100_000 {
		t.Errorf("avg cost = %v, want 100µs", got)
	}
	if r.SchedInvocations != 2 || r.JobsScheduled != 4 {
		t.Error("invocation accounting wrong")
	}
}

func TestReportString(t *testing.T) {
	r := NewReport("FCFS", 4)
	r.Horizon = units.Time(units.Second)
	if s := r.String(); len(s) == 0 {
		t.Error("empty String")
	}
}

func TestRecoveryFramerateDipAfterFailure(t *testing.T) {
	var rc Recovery
	// 30 fps before anything breaks; without faults no dip is attributed.
	for w := int64(0); w < 5; w++ {
		for f := 0; f < 30; f++ {
			rc.Frame(units.Time(w)*units.Time(units.Second) + units.Time(f))
		}
	}
	if depth, below := rc.FramerateDip(30); depth != 0 || below != 0 {
		t.Errorf("dip without faults = (%v, %v), want zero", depth, below)
	}

	// A fault at t=5s, two degraded windows (10 fps), then recovery.
	rc.FaultInjected(units.Time(5 * units.Second))
	for w := int64(5); w < 7; w++ {
		for f := 0; f < 10; f++ {
			rc.Frame(units.Time(w)*units.Time(units.Second) + units.Time(f))
		}
	}
	for f := 0; f < 30; f++ {
		rc.Frame(units.Time(7*units.Second) + units.Time(f))
	}
	depth, below := rc.FramerateDip(30)
	if depth != 20 {
		t.Errorf("dip depth = %v, want 20 fps", depth)
	}
	if below != 2*units.Second {
		t.Errorf("time below target = %v, want 2s", below)
	}
}

func TestRecoveryMTTRFromDownIntervals(t *testing.T) {
	var rc Recovery
	rc.NodeDown(0, units.Time(units.Second))
	rc.NodeDown(0, units.Time(2*units.Second)) // double-down is idempotent
	rc.NodeRepaired(0, units.Time(5*units.Second))
	rc.NodeDown(1, units.Time(10*units.Second))
	rc.NodeRepaired(1, units.Time(12*units.Second))
	rc.NodeRepaired(1, units.Time(20*units.Second)) // repair without open interval: no-op
	if got, want := rc.MTTR(), 3*units.Second; got != want {
		t.Errorf("MTTR = %v, want %v", got, want)
	}
	if rc.Downtime.N != 2 {
		t.Errorf("down intervals = %d, want 2", rc.Downtime.N)
	}
	// A node still down contributes nothing until repaired.
	rc.NodeDown(2, units.Time(30*units.Second))
	if rc.Downtime.N != 2 {
		t.Error("open interval leaked into Downtime")
	}
}

// TestRecoveryServiceMTTRCapsAtRehome is the regression test for the
// warm-restore double-count: once a crash's chunks are all re-homed warm,
// the later MarkRepaired (restoring the node cold) must not fold the
// rehome→repair window back into the service-impact MTTR. Raw MTTR keeps
// the full span.
func TestRecoveryServiceMTTRCapsAtRehome(t *testing.T) {
	var rc Recovery
	rc.NodeDown(0, units.Time(units.Second))
	rc.NodeRehomed(0, units.Time(2*units.Second))
	rc.NodeRehomed(0, units.Time(3*units.Second)) // later duplicate: first wins
	rc.NodeRepaired(0, units.Time(9*units.Second))
	if got, want := rc.MTTR(), 8*units.Second; got != want {
		t.Errorf("raw MTTR = %v, want the full span %v", got, want)
	}
	if got, want := rc.ServiceMTTR(), units.Duration(units.Second); got != want {
		t.Errorf("ServiceMTTR = %v, want the rehome-capped %v", got, want)
	}
	// Without a re-home the two agree.
	rc.NodeDown(1, units.Time(20*units.Second))
	rc.NodeRepaired(1, units.Time(24*units.Second))
	if rc.Downtime.N != 2 || rc.EffectiveDowntime.N != 2 {
		t.Fatalf("interval counts = %d/%d, want 2/2", rc.Downtime.N, rc.EffectiveDowntime.N)
	}
	if got, want := rc.ServiceMTTR(), (1+4)*units.Second/2; got != want {
		t.Errorf("ServiceMTTR after a plain interval = %v, want %v", got, want)
	}
}

// TestRecoveryRehomeOutsideDownIntervalIgnored: a re-home report with no
// open down interval (or one arriving after the repair already closed it)
// must not cap a later, unrelated outage.
func TestRecoveryRehomeOutsideDownIntervalIgnored(t *testing.T) {
	var rc Recovery
	rc.NodeRehomed(0, units.Time(units.Second)) // no interval open: ignored
	rc.NodeDown(0, units.Time(10*units.Second))
	rc.NodeRepaired(0, units.Time(14*units.Second))
	if got, want := rc.ServiceMTTR(), 4*units.Second; got != want {
		t.Errorf("ServiceMTTR = %v, want uncapped %v", got, want)
	}
	// A stale re-home stamp must not survive the repair into the next outage.
	rc.NodeDown(0, units.Time(20*units.Second))
	rc.NodeRehomed(0, units.Time(21*units.Second))
	rc.NodeRepaired(0, units.Time(25*units.Second))
	rc.NodeDown(0, units.Time(30*units.Second))
	rc.NodeRepaired(0, units.Time(36*units.Second))
	if rc.EffectiveDowntime.N != 3 {
		t.Fatalf("effective intervals = %d, want 3", rc.EffectiveDowntime.N)
	}
	sum := float64((4 + 1 + 6) * units.Second)
	if got, want := rc.EffectiveDowntime.Mean(), units.Duration(sum/3); got != want {
		t.Errorf("effective downtime mean = %v, want %v", got, want)
	}
}

// TestRecoveryChunksMovedAccumulates pins the counter plumbing the sweeps
// report.
func TestRecoveryChunksMovedAccumulates(t *testing.T) {
	var rc Recovery
	rc.ChunksMoved(3, 1)
	rc.ChunksMoved(2, 0)
	if rc.ChunksRehomed != 5 || rc.ChunksReseeded != 1 {
		t.Errorf("counters = %d/%d, want 5/1", rc.ChunksRehomed, rc.ChunksReseeded)
	}
}
