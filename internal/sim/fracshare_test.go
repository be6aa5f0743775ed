package sim

import (
	"math"
	"testing"

	"vizsched/internal/baselines"
	"vizsched/internal/core"
	"vizsched/internal/fracshare"
	"vizsched/internal/units"
	"vizsched/internal/volume"
	"vizsched/internal/workload"
)

// oneNodeConfig builds a single-node cluster holding one 256 MB single-chunk
// dataset — the smallest fixture on which fractional timing is predictable in
// closed form.
func oneNodeConfig(sched core.Scheduler, fs *fracshare.Config, preload bool) Config {
	lib := volume.NewLibrary()
	lib.Add(volume.NewDataset(1, "ds", 256*units.MB, volume.MaxChunk{Chkmax: 256 * units.MB}))
	lib.Add(volume.NewDataset(2, "ds", 256*units.MB, volume.MaxChunk{Chkmax: 256 * units.MB}))
	return Config{
		Nodes:     1,
		MemQuota:  units.GB,
		Model:     core.System1CostModel(),
		Scheduler: sched,
		Library:   lib,
		Seed:      1,
		Preload:   preload,
		FracShare: fs,
	}
}

// batchPair is two single-chunk batch jobs over distinct datasets arriving
// together — distinct so that in a cold run both tasks are I/O-heavy
// (same-chunk pairs would coalesce into one load and one hit).
func batchPair(length units.Time) *workload.Schedule {
	return &workload.Schedule{
		Length: length,
		Requests: []workload.Request{
			{At: 0, Class: core.Batch, Action: 1, Dataset: 1},
			{At: 0, Class: core.Batch, Action: 2, Dataset: 2},
		},
	}
}

// TestFracShareEqualSlowdown pins the core re-pricing behaviour end to end:
// two identical cached tasks sharing one node at 1/2 each both finish at
// twice the serial execution time — against the serial engine where one
// finishes at E and the other at 2E — and deliver exactly the same total
// work.
func TestFracShareEqualSlowdown(t *testing.T) {
	horizon := units.Time(30 * units.Second)
	serial := New(oneNodeConfig(baselines.FCFS{}, nil, true)).Run(batchPair(horizon), 0)
	frac := New(oneNodeConfig(baselines.FCFS{}, &fracshare.Config{}, true)).Run(batchPair(horizon), 0)

	if serial.Batch.Completed != 2 || frac.Batch.Completed != 2 {
		t.Fatalf("completed: serial=%d frac=%d, want 2 and 2", serial.Batch.Completed, frac.Batch.Completed)
	}
	// Serial: convoy. The second job waits for the first.
	if r := float64(serial.Batch.Latency.Max) / float64(serial.Batch.Latency.Min); math.Abs(r-2) > 0.02 {
		t.Errorf("serial max/min latency ratio = %.3f, want ≈2 (convoy)", r)
	}
	// Fractional: both at share 1/2, both finish together at 2E — no convoy,
	// same makespan.
	if r := float64(frac.Batch.Latency.Min) / float64(serial.Batch.Latency.Max); math.Abs(r-1) > 0.02 {
		t.Errorf("frac min latency / serial makespan = %.3f, want ≈1", r)
	}
	if r := float64(frac.Batch.Latency.Max) / float64(serial.Batch.Latency.Max); math.Abs(r-1) > 0.02 {
		t.Errorf("frac max latency / serial makespan = %.3f, want ≈1", r)
	}
	// Sharing stretches completions, never the delivered work.
	if frac.BusyNodeTime != serial.BusyNodeTime {
		t.Errorf("busy time: frac=%v serial=%v, want equal", frac.BusyNodeTime, serial.BusyNodeTime)
	}
	if frac.FracShare == nil || frac.FracShare.Slots != fracshare.DefaultSlots {
		t.Errorf("FracShare outcome = %+v, want slots=%d", frac.FracShare, fracshare.DefaultSlots)
	}
	if serial.FracShare != nil {
		t.Error("serial run carries a FracShare outcome")
	}
	// Both jobs stretched by the sharing: stretch ≈ 2 each.
	if frac.BatchStretch.N != 2 || frac.BatchStretch.Mean() < 1.9 {
		t.Errorf("frac stretch: n=%d mean=%.2f, want 2 jobs ≈2.0", frac.BatchStretch.N, frac.BatchStretch.Mean())
	}
}

// TestFracShareIOPenaltySuperLinear: two co-running cache-miss tasks contend
// super-linearly on the disk — with γ=1.5 each runs at (1/2)/√2 instead of
// 1/2, so the shared makespan is √2× the γ=1 (fair-division) makespan.
func TestFracShareIOPenaltySuperLinear(t *testing.T) {
	horizon := units.Time(60 * units.Second)
	fair := New(oneNodeConfig(baselines.FCFS{}, &fracshare.Config{IOGamma: 1}, false)).Run(batchPair(horizon), 0)
	thrash := New(oneNodeConfig(baselines.FCFS{}, &fracshare.Config{IOGamma: 1.5}, false)).Run(batchPair(horizon), 0)

	if fair.Batch.Completed != 2 || thrash.Batch.Completed != 2 {
		t.Fatalf("completed: fair=%d thrash=%d", fair.Batch.Completed, thrash.Batch.Completed)
	}
	r := float64(thrash.Batch.Latency.Max) / float64(fair.Batch.Latency.Max)
	if math.Abs(r-math.Sqrt2) > 0.03 {
		t.Errorf("γ=1.5 / γ=1 makespan ratio = %.3f, want ≈√2", r)
	}
}

// TestFracShareStallResumePreemptsProgress: a stall zeroes every slot's rate
// and resume re-prices from exactly where progress stopped, so the stalled
// run's completions shift by precisely the stall window.
func TestFracShareStallResumePreemptsProgress(t *testing.T) {
	horizon := units.Time(60 * units.Second)
	plain := New(oneNodeConfig(baselines.FCFS{}, &fracshare.Config{}, false)).Run(batchPair(horizon), 0)

	cfg := oneNodeConfig(baselines.FCFS{}, &fracshare.Config{}, false)
	stallFor := units.Duration(900 * units.Millisecond)
	cfg.Failures = []Failure{{
		Kind: FaultStall, Node: 0,
		At:       units.Time(500 * units.Millisecond),
		RepairAt: units.Time(500 * units.Millisecond).Add(stallFor),
	}}
	stalled := New(cfg).Run(batchPair(horizon), 0)

	if stalled.Batch.Completed != 2 {
		t.Fatalf("stalled run completed %d of 2", stalled.Batch.Completed)
	}
	shift := stalled.Batch.Latency.Max - plain.Batch.Latency.Max
	if d := shift - stallFor; d < -units.Millisecond || d > units.Millisecond {
		t.Errorf("stall shifted makespan by %v, want %v", shift, stallFor)
	}
}

// fracMixedConfig is a 4-node cluster with 1 GB interactive datasets 1–2 and
// a single-chunk 256 MB batch dataset 3, nothing preloaded — so batch work is
// cold everywhere and each batch job is one task.
func fracMixedConfig(fs *fracshare.Config) Config {
	cfg := smallConfig(core.NewLocalityScheduler(0), 2)
	cfg.Library.Add(volume.NewDataset(3, "batch", 256*units.MB, volume.MaxChunk{Chkmax: 256 * units.MB}))
	cfg.Preload = false
	cfg.FracShare = fs
	return cfg
}

// guardWorkload is two steady interactive sessions plus nBatch cold batch
// jobs over dataset 3 submitted at one second.
func guardWorkload(nBatch int, length units.Time) *workload.Schedule {
	wl := workload.Generate(workload.Spec{
		Length:            length,
		Datasets:          2,
		ContinuousActions: 2,
		Seed:              5,
	})
	for i := 0; i < nBatch; i++ {
		wl.Requests = append(wl.Requests, workload.Request{
			At: units.Time(units.Second), Class: core.Batch,
			Action: core.ActionID(100 + i), Dataset: 3,
		})
	}
	return wl
}

// TestFracShareCoSchedulePreemptsAndReclaims is the tentpole behaviour test:
// under OURS with every node shadowing an interactive stream, the ε-guard
// starves cold batch entirely; with co-scheduling the same guard window runs
// batch guests at fractional share, preempted on every frame arrival — so
// batch makes real progress while the interactive framerate stays at target.
func TestFracShareCoSchedulePreemptsAndReclaims(t *testing.T) {
	length := units.Time(30 * units.Second)
	base := New(fracMixedConfig(nil)).Run(guardWorkload(3, length), 0)
	frac := New(fracMixedConfig(&fracshare.Config{})).Run(guardWorkload(3, length), 0)

	// Without co-scheduling, the guard blocks dataset 3 on every
	// interactive-hot node: the attributed guard idle must be visible.
	if base.GuardIdle == 0 {
		t.Error("baseline OURS run attributed no guard idle")
	}
	out := frac.FracShare
	if out == nil {
		t.Fatal("frac run has no FracShare outcome")
	}
	if out.CoScheduled == 0 {
		t.Fatal("no guests co-scheduled inside the guard window")
	}
	if out.Preemptions == 0 {
		t.Error("no guest was ever preempted by a demand frame")
	}
	if out.Resumes == 0 {
		t.Error("no guest ever resumed after a preemption")
	}
	if out.CoBusyTime == 0 {
		t.Error("guests accumulated no busy share (nothing reclaimed)")
	}
	if frac.Batch.Completed <= base.Batch.Completed {
		t.Errorf("co-scheduling reclaimed nothing: batch completed frac=%d base=%d",
			frac.Batch.Completed, base.Batch.Completed)
	}
	// The guard's reason must survive: interactive service unharmed.
	if fps := frac.MeanFramerate(); fps < 28 {
		t.Errorf("interactive framerate with co-scheduling = %.2f, want ≥28", fps)
	}
	if b, f := base.MeanFramerate(), frac.MeanFramerate(); f < b-3 {
		t.Errorf("co-scheduling dented framerate: %.2f vs %.2f", f, b)
	}
}

// TestFracShareDFRSCompletesWithStretch: the DFRS baseline late-binds batch
// onto fractional slots and everything completes, with per-job stretch
// recorded for the sweep's fairness column.
func TestFracShareDFRSCompletesWithStretch(t *testing.T) {
	cfg := smallConfig(baselines.NewDFRS(0, 0), 3)
	cfg.FracShare = &fracshare.Config{CoShare: -1} // slots only; DFRS has no guests
	wl := workload.Generate(workload.Spec{
		Length:            units.Time(30 * units.Second),
		Datasets:          3,
		ContinuousActions: 1,
		TargetBatch:       20,
		BatchFramesMin:    10, BatchFramesMax: 10,
		Seed: 9,
	})
	rep := New(cfg).Run(wl, 0)
	if rep.Batch.Completed == 0 {
		t.Fatal("DFRS completed no batch work")
	}
	if rep.Interactive.Completed < int64(float64(rep.Interactive.Issued)*0.9) {
		t.Errorf("DFRS completed %d of %d interactive", rep.Interactive.Completed, rep.Interactive.Issued)
	}
	if rep.BatchStretch.N != rep.Batch.Completed {
		t.Errorf("stretch recorded for %d of %d batch jobs", rep.BatchStretch.N, rep.Batch.Completed)
	}
	if rep.BatchStretch.Min < 1 {
		t.Errorf("stretch min = %.3f; below 1 means a job beat its full-share lower bound", rep.BatchStretch.Min)
	}
	if rep.FracShare == nil || rep.FracShare.CoScheduled != 0 {
		t.Errorf("DFRS run outcome = %+v, want present with zero guests", rep.FracShare)
	}
}

// TestFracShareDeterministicRuns: the frac layer under jitter, guests,
// preemptions, and guard sampling is bit-reproducible.
func TestFracShareDeterministicRuns(t *testing.T) {
	run := func() *fracSummary {
		cfg := fracMixedConfig(&fracshare.Config{})
		cfg.Jitter = 0.1
		rep := New(cfg).Run(guardWorkload(4, units.Time(12*units.Second)), 0)
		return &fracSummary{
			intLat:  rep.Interactive.Latency.Mean(),
			batLat:  rep.Batch.Latency.Mean(),
			hits:    rep.Hits,
			misses:  rep.Misses,
			guard:   rep.GuardIdle,
			queue:   rep.QueueIdle,
			stretch: rep.BatchStretch.Mean(),
			coBusy:  rep.FracShare.CoBusyTime,
			preempt: rep.FracShare.Preemptions,
		}
	}
	a, b := run(), run()
	if *a != *b {
		t.Errorf("identical seeds diverged:\n  a=%+v\n  b=%+v", a, b)
	}
}

type fracSummary struct {
	intLat, batLat units.Duration
	hits, misses   int64
	guard, queue   units.Duration
	stretch        float64
	coBusy         units.Duration
	preempt        int64
}

// TestFracShareCrashRequeuesGuest: a node crash mid-guest returns the
// guest's task to the queue like any running task, clears the head's
// guest mark, and the work completes elsewhere.
func TestFracShareCrashRequeuesGuest(t *testing.T) {
	cfg := fracMixedConfig(&fracshare.Config{})
	cfg.Failures = []Failure{{
		At: units.Time(4 * units.Second), Node: 1,
		RepairAt: units.Time(8 * units.Second),
	}}
	rep := New(cfg).Run(guardWorkload(2, units.Time(35*units.Second)), 0)
	if rep.Batch.Completed == 0 {
		t.Error("no batch completed across the crash")
	}
	if rep.Interactive.Completed < int64(float64(rep.Interactive.Issued)*0.75) {
		t.Errorf("interactive completed %d of %d across the crash",
			rep.Interactive.Completed, rep.Interactive.Issued)
	}
}

// TestFracShareIdleSampleNoAllocs: the idle sampler runs after every
// periodic scheduling cycle, so it must find its sample of pending batch
// chunks — the first eight distinct ones in queue order — without
// allocating, and still attribute every idle node's cycle.
func TestFracShareIdleSampleNoAllocs(t *testing.T) {
	e := New(fracMixedConfig(nil))
	for j := 0; j < 64; j++ {
		d := e.cfg.Library.Get(volume.DatasetID(j%3 + 1))
		job := &core.Job{ID: core.JobID(j + 1), Class: core.Batch, Action: core.ActionID(j + 1), Dataset: d.ID}
		for i, c := range d.Chunks {
			job.Tasks = append(job.Tasks, core.Task{Job: job, Index: i, Chunk: c.ID, Size: c.Size})
		}
		job.Remaining = int32(len(job.Tasks))
		e.backlog.Push(job)
	}
	e.sampleIdleSplit()
	if got, want := e.report.GuardIdle+e.report.QueueIdle, units.Duration(len(e.nodes))*core.CycleOf(e.cfg.Scheduler); got != want {
		t.Fatalf("one sample attributed %v of idle time, want a cycle for each of %d idle nodes (%v)", got, len(e.nodes), want)
	}
	if allocs := testing.AllocsPerRun(100, e.sampleIdleSplit); allocs != 0 {
		t.Errorf("sampleIdleSplit allocates %v times a cycle, want 0", allocs)
	}
}
