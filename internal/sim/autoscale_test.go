package sim

import (
	"fmt"
	"testing"

	"vizsched/internal/autoscale"
	"vizsched/internal/core"
	"vizsched/internal/units"
	"vizsched/internal/volume"
	"vizsched/internal/workload"
)

// burstThenQuiet front-loads a burst of interactive frames and then leaves
// the rest of the horizon idle — the shape that makes the policy drain.
func burstThenQuiet(frames int, gap units.Duration, length units.Time) *workload.Schedule {
	s := &workload.Schedule{Length: length}
	at := units.Time(0)
	for i := 0; i < frames; i++ {
		s.Requests = append(s.Requests, workload.Request{
			At: at, Class: core.Interactive, Action: core.ActionID(1 + i%2), Dataset: 1,
		})
		at = at.Add(gap)
	}
	return s
}

// TestAutoscaleDrainIsNeverACrash is the tentpole invariant: an elastic run
// that drains nodes must leave every crash-recovery counter at zero — no
// redispatch, no MTTR samples, no rarest-first re-seeding — and lose no
// jobs. A drain is a voluntary exit, not a failure.
func TestAutoscaleDrainIsNeverACrash(t *testing.T) {
	cfg := smallConfig(core.NewLocalityScheduler(0), 2)
	cfg.Replicas = 2
	cfg.Autoscale = &autoscale.Config{
		Interval: 250 * units.Millisecond,
		MinNodes: 1,
		HoldDown: 4,
		Cooldown: 2 * units.Second,
	}
	rep := New(cfg).Run(burstThenQuiet(16, 400*units.Millisecond, units.Time(60*units.Second)), 0)

	as := rep.Autoscale
	if as == nil {
		t.Fatal("elastic run carries no autoscale outcome")
	}
	if as.Drains == 0 || as.DrainsCompleted == 0 {
		t.Fatalf("quiet tail should drain: %+v", as)
	}
	if rep.Recovery.TasksRedispatched != 0 {
		t.Errorf("drain counted as crash redispatch: %d", rep.Recovery.TasksRedispatched)
	}
	if rep.Recovery.Downtime.N != 0 || rep.Recovery.EffectiveDowntime.N != 0 {
		t.Errorf("drain produced MTTR samples: down=%d effective=%d",
			rep.Recovery.Downtime.N, rep.Recovery.EffectiveDowntime.N)
	}
	if rep.Recovery.ChunksReseeded != 0 {
		t.Errorf("drain triggered rarest-first re-seeding: %d", rep.Recovery.ChunksReseeded)
	}
	if rep.Interactive.Issued != rep.Interactive.Completed {
		t.Errorf("jobs lost across drains: issued %d completed %d",
			rep.Interactive.Issued, rep.Interactive.Completed)
	}
	if as.NodeSeconds <= 0 {
		t.Error("node-seconds integral never advanced")
	}
	// The fleet actually shrank: the integral must undercut the fixed bill.
	fixed := float64(cfg.Nodes) * units.Time(60*units.Second).Seconds()
	if as.NodeSeconds >= fixed {
		t.Errorf("node-seconds %.1f not below fixed-fleet %.1f", as.NodeSeconds, fixed)
	}
}

// TestAutoscaleScaleUpUnderLoad starts the fleet at one node and piles on
// work: the policy must activate capacity, and the activations go through
// the repair path without ever counting as repairs of a *crash*.
func TestAutoscaleScaleUpUnderLoad(t *testing.T) {
	cfg := smallConfig(core.NewLocalityScheduler(0), 4)
	cfg.Autoscale = &autoscale.Config{
		Interval: 250 * units.Millisecond,
		Initial:  1,
		MinNodes: 1,
		HoldUp:   2,
		Cooldown: 1 * units.Second,
	}
	wl := workload.Generate(workload.Spec{
		Length:            units.Time(40 * units.Second),
		Datasets:          4,
		ContinuousActions: 4,
		TargetBatch:       8,
		Seed:              7,
	})
	rep := New(cfg).Run(wl, 0)

	as := rep.Autoscale
	if as == nil {
		t.Fatal("elastic run carries no autoscale outcome")
	}
	if as.ScaleUps == 0 {
		t.Fatalf("loaded run never scaled up: %+v", as)
	}
	if as.MaxActive <= 1 {
		t.Errorf("MaxActive = %d, want growth past the single seed node", as.MaxActive)
	}
	if as.MinActive != 1 {
		t.Errorf("MinActive = %d, want the initial single node", as.MinActive)
	}
	if rep.Recovery.Faults != 0 {
		t.Errorf("scale-ups counted as faults: %d", rep.Recovery.Faults)
	}
	if got := rep.Interactive.Completed + rep.Batch.Completed; got == 0 {
		t.Error("no jobs completed on the elastic fleet")
	}
}

// TestAutoscaleDrainMigratesQueuedTasks forces a drain while the victim
// still holds queued work: the tasks must migrate (work stealing), never
// redispatch, and every job must still complete.
func TestAutoscaleDrainMigratesQueuedTasks(t *testing.T) {
	cfg := smallConfig(core.NewLocalityScheduler(0), 4)
	// Bands tuned so the very first sample reads as drain pressure even with
	// a deep queue: the test wants migration under load, not a quiet exit.
	cfg.Autoscale = &autoscale.Config{
		Interval:  200 * units.Millisecond,
		MinNodes:  1,
		QueueHigh: 1e9,
		QueueLow:  1e9 - 1,
		HoldDown:  1,
		Cooldown:  units.Duration(600 * units.Second),
	}
	s := &workload.Schedule{Length: units.Time(60 * units.Second)}
	for i := 0; i < 40; i++ {
		s.Requests = append(s.Requests, workload.Request{
			At:      units.Time(i * int(units.Millisecond)),
			Class:   core.Interactive,
			Action:  core.ActionID(1 + i%8),
			Dataset: volume.DatasetID(1 + i%4),
		})
	}
	rep := New(cfg).Run(s, 0)

	as := rep.Autoscale
	if as == nil {
		t.Fatal("elastic run carries no autoscale outcome")
	}
	if as.Drains == 0 {
		t.Fatal("drain never started despite forced low band")
	}
	if as.TasksMigrated == 0 {
		t.Error("drain under load migrated no queued tasks")
	}
	if rep.Recovery.TasksRedispatched != 0 {
		t.Errorf("migration leaked into crash redispatch: %d", rep.Recovery.TasksRedispatched)
	}
	if rep.Interactive.Issued != rep.Interactive.Completed {
		t.Errorf("jobs lost across a loaded drain: issued %d completed %d",
			rep.Interactive.Issued, rep.Interactive.Completed)
	}
}

// TestAutoscaleRunsAreDeterministic: two identical elastic runs must agree
// bit-for-bit on every outcome the experiment tables print.
func TestAutoscaleRunsAreDeterministic(t *testing.T) {
	run := func() (*metricsSummary, string) {
		cfg := smallConfig(core.NewLocalityScheduler(0), 4)
		cfg.Replicas = 2
		cfg.Autoscale = &autoscale.Config{
			Interval: 250 * units.Millisecond,
			Initial:  2,
			MinNodes: 1,
			HoldUp:   2,
			HoldDown: 4,
			Cooldown: 2 * units.Second,
		}
		wl := workload.Generate(workload.Spec{
			Length:            units.Time(30 * units.Second),
			Datasets:          4,
			ContinuousActions: 3,
			TargetBatch:       4,
			Seed:              13,
		})
		rep := New(cfg).Run(wl, 0)
		sum := &metricsSummary{
			completed: rep.Interactive.Completed + rep.Batch.Completed,
			mean:      rep.Interactive.Latency.Mean(),
			p95:       rep.Interactive.LatencyHist.P95(),
		}
		return sum, fmt.Sprintf("%+v", rep.Autoscale)
	}
	s1, a1 := run()
	s2, a2 := run()
	if *s1 != *s2 {
		t.Errorf("elastic runs diverged: %+v vs %+v", s1, s2)
	}
	if a1 != a2 {
		t.Errorf("autoscale outcomes diverged:\n%s\n%s", a1, a2)
	}
}

type metricsSummary struct {
	completed int64
	mean      units.Duration
	p95       units.Duration
}
