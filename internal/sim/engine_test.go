package sim

import (
	"math"
	"slices"
	"testing"

	"vizsched/internal/baselines"
	"vizsched/internal/core"
	"vizsched/internal/metrics"
	"vizsched/internal/units"
	"vizsched/internal/volume"
	"vizsched/internal/workload"
)

// smallConfig builds a 4-node cluster with nDatasets 1 GB datasets split
// into 256 MB chunks.
func smallConfig(sched core.Scheduler, nDatasets int) Config {
	lib := volume.NewLibrary()
	policy := volume.Decomposition(volume.MaxChunk{Chkmax: 256 * units.MB})
	if o, ok := sched.(core.DecompositionOverrider); ok {
		policy = o.Decomposition(4)
	}
	for i := 1; i <= nDatasets; i++ {
		lib.Add(volume.NewDataset(volume.DatasetID(i), "ds", units.GB, policy))
	}
	return Config{
		Nodes:     4,
		MemQuota:  2 * units.GB,
		Model:     core.System1CostModel(),
		Scheduler: sched,
		Library:   lib,
		Seed:      1,
		Preload:   true,
	}
}

// steadyWorkload returns one continuous action per dataset.
func steadyWorkload(nActions int, length units.Time) *workload.Schedule {
	return workload.Generate(workload.Spec{
		Length:            length,
		Datasets:          nActions,
		ContinuousActions: nActions,
		Seed:              5,
	})
}

func TestOursReachesTargetFramerate(t *testing.T) {
	// Two users on two 1GB datasets: after the initial loads, everything is
	// cached and the system must sustain ~33.33 fps.
	eng := New(smallConfig(core.NewLocalityScheduler(0), 2))
	wl := steadyWorkload(2, units.Time(20*units.Second))
	rep := eng.Run(wl, 0)

	if rep.Interactive.Completed < int64(float64(rep.Interactive.Issued)*0.95) {
		t.Errorf("completed %d of %d interactive jobs", rep.Interactive.Completed, rep.Interactive.Issued)
	}
	if fps := rep.MeanFramerate(); math.Abs(fps-33.33) > 2 {
		t.Errorf("framerate = %.2f, want ≈33.33", fps)
	}
	// After the six initial chunk loads, every access hits.
	if hr := rep.HitRate(); hr < 0.99 {
		t.Errorf("hit rate = %.4f, want ≥0.99", hr)
	}
	// Latency must be milliseconds, not seconds.
	if lat := rep.Interactive.Latency.Mean(); lat > 100*units.Millisecond {
		t.Errorf("mean latency = %v", lat)
	}
}

func TestFCFSThrashesAcrossManyDatasets(t *testing.T) {
	// Eight users on eight datasets over four nodes with locality-blind
	// FCFS: chunks keep landing on nodes that do not hold them, so the
	// framerate collapses and latency is dominated by I/O.
	cfg := smallConfig(baselines.FCFS{}, 8)
	cfg.MemQuota = units.GB // 4 chunks per node: far less than 32 chunks total
	eng := New(cfg)
	wl := steadyWorkload(8, units.Time(20*units.Second))
	rep := eng.Run(wl, 0)

	if fps := rep.MeanFramerate(); fps > 5 {
		t.Errorf("FCFS framerate = %.2f, expected collapse below 5", fps)
	}
	if hr := rep.HitRate(); hr > 0.9 {
		t.Errorf("FCFS hit rate = %.4f, expected low", hr)
	}
}

func TestFCFSLRecoverLocalityOnSameWorkload(t *testing.T) {
	cfg := smallConfig(baselines.FCFSL{}, 2)
	eng := New(cfg)
	wl := steadyWorkload(2, units.Time(20*units.Second))
	rep := eng.Run(wl, 0)
	if fps := rep.MeanFramerate(); math.Abs(fps-33.33) > 2 {
		t.Errorf("FCFSL framerate = %.2f, want ≈33.33", fps)
	}
	if hr := rep.HitRate(); hr < 0.99 {
		t.Errorf("FCFSL hit rate = %.4f", hr)
	}
}

func TestFCFSUUniformUsesAllNodesPerJob(t *testing.T) {
	eng := New(smallConfig(baselines.FCFSU{}, 1))
	wl := steadyWorkload(1, units.Time(5*units.Second))
	rep := eng.Run(wl, 0)
	// One action, uniform partition: all 4 nodes busy on every job; hit
	// rate perfect after the first job.
	if hr := rep.HitRate(); hr < 0.99 {
		t.Errorf("FCFSU hit rate = %.4f", hr)
	}
	if rep.Interactive.Completed == 0 {
		t.Fatal("nothing completed")
	}
}

func TestOursDefersBatchUnderInteractiveLoad(t *testing.T) {
	// Interactive users on datasets 1-2; batch animation over dataset 3.
	lengthS := 15
	wl := workload.Generate(workload.Spec{
		Length:            units.Time(units.Duration(lengthS) * units.Second),
		Datasets:          3,
		ContinuousActions: 2, // datasets 1 and 2
		TargetBatch:       50,
		BatchFramesMin:    25, BatchFramesMax: 25,
		Seed: 9,
	})
	eng := New(smallConfig(core.NewLocalityScheduler(0), 3))
	rep := eng.Run(wl, 0)

	// Interactive stays near target despite batch pressure.
	if fps := rep.MeanFramerate(); fps < 30 {
		t.Errorf("interactive framerate under batch = %.2f", fps)
	}
	if rep.Batch.Completed == 0 {
		t.Error("batch fully starved; deferral must still make progress")
	}
}

func TestFailureRequeuesAndCompletes(t *testing.T) {
	cfg := smallConfig(core.NewLocalityScheduler(0), 2)
	cfg.Failures = []Failure{{At: units.Time(3 * units.Second), Node: 1}}
	eng := New(cfg)
	wl := steadyWorkload(2, units.Time(10*units.Second))
	rep := eng.Run(wl, 0)

	// Jobs keep completing on the surviving nodes. The lost node's chunks
	// need a ~2.6 s reload, so roughly one quarter of one action's frames in
	// a 10 s window are forfeit; anything above 80%% means recovery worked.
	if rep.Interactive.Completed < int64(float64(rep.Interactive.Issued)*0.8) {
		t.Errorf("completed %d of %d with one node down", rep.Interactive.Completed, rep.Interactive.Issued)
	}
	if fps := rep.MeanFramerate(); fps < 20 {
		t.Errorf("framerate with failure = %.2f", fps)
	}
}

func TestFailureAndRepair(t *testing.T) {
	cfg := smallConfig(core.NewLocalityScheduler(0), 2)
	cfg.Failures = []Failure{{
		At: units.Time(2 * units.Second), Node: 0,
		RepairAt: units.Time(4 * units.Second),
	}}
	eng := New(cfg)
	wl := steadyWorkload(2, units.Time(10*units.Second))
	rep := eng.Run(wl, 0)
	if rep.Interactive.Completed < int64(float64(rep.Interactive.Issued)*0.8) {
		t.Errorf("completed %d of %d across fail/repair", rep.Interactive.Completed, rep.Interactive.Issued)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() *metrics.Report {
		cfg := smallConfig(core.NewLocalityScheduler(0), 3)
		cfg.Jitter = 0.1
		eng := New(cfg)
		wl := steadyWorkload(3, units.Time(8*units.Second))
		return eng.Run(wl, 0)
	}
	a, b := run(), run()
	if a.Interactive.Completed != b.Interactive.Completed ||
		a.Hits != b.Hits || a.Misses != b.Misses ||
		a.Interactive.Latency.Mean() != b.Interactive.Latency.Mean() {
		t.Error("identical seeds produced different runs")
	}
}

func TestJitterExercisesCorrection(t *testing.T) {
	cfg := smallConfig(core.NewLocalityScheduler(0), 2)
	cfg.Jitter = 0.2
	eng := New(cfg)
	wl := steadyWorkload(2, units.Time(10*units.Second))
	rep := eng.Run(wl, 0)
	// The system still functions with noisy execution times.
	if fps := rep.MeanFramerate(); fps < 28 {
		t.Errorf("framerate with jitter = %.2f", fps)
	}
}

func TestConfigValidation(t *testing.T) {
	good := smallConfig(core.NewLocalityScheduler(0), 1)
	for name, breaker := range map[string]func(Config) Config{
		"no nodes":     func(c Config) Config { c.Nodes = 0; return c },
		"no library":   func(c Config) Config { c.Library = nil; return c },
		"no scheduler": func(c Config) Config { c.Scheduler = nil; return c },
		"chunk > gpu":  func(c Config) Config { c.GPUMem = units.MB; return c },
		"chunk > mem":  func(c Config) Config { c.MemQuota = units.MB; return c },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			New(breaker(good))
		}()
	}
}

func TestSchedulingCostIsMeasured(t *testing.T) {
	eng := New(smallConfig(core.NewLocalityScheduler(0), 2))
	wl := steadyWorkload(2, units.Time(5*units.Second))
	rep := eng.Run(wl, 0)
	if rep.SchedInvocations == 0 || rep.SchedWall == 0 {
		t.Error("scheduling cost not measured")
	}
	if rep.JobsScheduled == 0 {
		t.Error("no jobs counted as scheduled")
	}
	if rep.AvgSchedCostPerJob() <= 0 {
		t.Error("avg cost per job not positive")
	}
}

func TestRunScenarioSmoke(t *testing.T) {
	cfg := workload.Scenario(workload.Scenario1, 0.05)
	rep := RunScenario(cfg, core.NewLocalityScheduler(0), 0)
	if rep.Scheduler != "OURS" {
		t.Errorf("scheduler name = %q", rep.Scheduler)
	}
	if rep.Interactive.Completed == 0 {
		t.Error("scenario 1 run completed nothing")
	}
	if fps := rep.MeanFramerate(); fps < 25 {
		t.Errorf("scenario 1 OURS framerate = %.2f", fps)
	}
}

// shownJobs remembers every job a scheduler is shown and, at every pass,
// holds each to its task records (core.CheckRecords) until the job is done.
type shownJobs map[*core.Job]bool

func (s shownJobs) check(t *testing.T, queue []*core.Job) {
	t.Helper()
	for j := range s {
		if int(j.Done) == len(j.Tasks) {
			delete(s, j)
		} else if err := core.CheckRecords(j); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range queue {
		s[j] = true
	}
}

// recordWatcher is OURS holding every job it is shown to its records.
type recordWatcher struct {
	*core.LocalityScheduler
	t     *testing.T
	shown shownJobs
}

func watchRecords(t *testing.T, s core.Scheduler) core.Scheduler {
	return &recordWatcher{LocalityScheduler: s.(*core.LocalityScheduler), t: t, shown: shownJobs{}}
}

func (w *recordWatcher) Schedule(now units.Time, queue []*core.Job, head *core.HeadState) []core.Assignment {
	w.shown.check(w.t, queue)
	return w.LocalityScheduler.Schedule(now, queue, head)
}

// windowWatcher wraps a scheduler and checks every pass's batch jobs
// against the engine's queued ones, told apart by job ID: the jobs issued so
// far (IDs up to the engine's nextJob) that some pass has not yet assigned
// whole. A pass must see the window's worth of the oldest of them. Every
// job it is shown is held to its records (shownJobs).
type windowWatcher struct {
	core.Scheduler
	t        *testing.T
	eng      *Engine
	assigned map[core.JobID]bool
	shown    shownJobs
	widest   int
}

func (w *windowWatcher) Schedule(now units.Time, queue []*core.Job, head *core.HeadState) []core.Assignment {
	w.shown.check(w.t, queue)
	var seen []core.JobID
	for _, j := range queue {
		if j.Class == core.Batch {
			seen = append(seen, j.ID)
		}
	}
	var oldest []core.JobID
	for id := core.JobID(1); id <= w.eng.nextJob && len(oldest) < core.DefaultBatchWindow; id++ {
		if !w.assigned[id] {
			oldest = append(oldest, id)
		}
	}
	if !slices.Equal(seen, oldest) {
		w.t.Fatalf("a pass saw %d batch jobs %v…, want the %d oldest queued %v…",
			len(seen), seen[:min(len(seen), 4)], len(oldest), oldest[:min(len(oldest), 4)])
	}
	w.widest = max(w.widest, len(seen))
	out := w.Scheduler.Schedule(now, queue, head)
	for _, j := range queue {
		w.assigned[j.ID] = !slices.ContainsFunc(j.Tasks, func(t core.Task) bool { return !t.Assigned() })
	}
	return out
}

// TestBatchWindowLimitsPresentation runs a burst of more batch jobs than
// core.DefaultBatchWindow: no pass is shown more than the window, those it
// is shown are the oldest queued, and every job still completes.
func TestBatchWindowLimitsPresentation(t *testing.T) {
	const burst = core.DefaultBatchWindow + 44
	w := &windowWatcher{Scheduler: core.NewLocalityScheduler(0), t: t, assigned: map[core.JobID]bool{}, shown: shownJobs{}}
	eng := New(smallConfig(w, 1))
	w.eng = eng
	wl := workload.Generate(workload.Spec{
		Length:         units.Time(120 * units.Second),
		Datasets:       1,
		TargetBatch:    burst,
		BatchFramesMin: burst, BatchFramesMax: burst,
		Seed: 3,
	})
	rep := eng.Run(wl, 0)
	if w.widest != core.DefaultBatchWindow {
		t.Errorf("the widest pass saw %d batch jobs, want the window's %d", w.widest, core.DefaultBatchWindow)
	}
	if rep.Batch.Completed != burst {
		t.Errorf("batch completed = %d of %d", rep.Batch.Completed, burst)
	}
}
