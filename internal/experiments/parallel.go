package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vizsched/internal/core"
	"vizsched/internal/metrics"
	"vizsched/internal/sim"
	"vizsched/internal/units"
	"vizsched/internal/volume"
	"vizsched/internal/workload"
)

// DefaultWorkers is the worker count the -parallel flags default to: one
// worker per schedulable CPU. Each simulation run is single-threaded, so
// this fills the machine without oversubscribing it — oversubscription
// would contend the wall-clock scheduling-cost measurements (Table III,
// Figs. 8–9); see EXPERIMENTS.md for the measurement policy.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// ForEach invokes fn(i) for every i in [0, n) using up to workers
// goroutines, returning when all calls have completed. With workers <= 1
// (or n <= 1) it degenerates to a plain sequential loop on the calling
// goroutine. fn must be safe to call concurrently with itself; each index
// is dispatched exactly once. Because callers write results into
// index-addressed slots, output order is independent of interleaving — the
// foundation of the bit-identical parallel/sequential guarantee.
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// RunScenarios runs every (scenario, scheduler) pair across the given
// scenario IDs with up to workers concurrent simulations — the fan-out
// cmd/vizbench uses, where all cells of Figs. 4–7 and Table III are
// mutually independent. The result maps each scenario to its reports in
// Schedulers() order.
func RunScenarios(ids []workload.ScenarioID, scale float64, workers int) map[workload.ScenarioID][]*metrics.Report {
	nSched := len(Schedulers())
	out := make(map[workload.ScenarioID][]*metrics.Report, len(ids))
	cfgs := make([]workload.ScenarioConfig, len(ids))
	for i, id := range ids {
		cfgs[i] = workload.Scenario(id, scale)
		out[id] = make([]*metrics.Report, nSched)
	}
	ForEach(workers, len(ids)*nSched, func(cell int) {
		si, ki := cell/nSched, cell%nSched
		// Fresh scheduler instance per cell: scheduler scratch state is not
		// shareable across concurrent runs.
		out[ids[si]][ki] = sim.RunScenario(cfgs[si], Schedulers()[ki], Jitter)
	})
	return out
}

// fig8Names are the schedulers Fig. 8 compares.
var fig8Names = []string{"FCFSU", "FCFSL", "OURS"}

// fig8Libraries builds the chunk libraries the Fig. 8 sweep needs, one per
// distinct decomposition policy rather than one per (point, scheduler)
// cell: the 16 x 4 GB dataset set is identical at every sweep point, and a
// Library is immutable once built, so FCFSL and OURS share the 512 MB
// max-chunk library while FCFSU gets its uniform per-node split. The
// result maps scheduler name -> library.
func fig8Libraries() map[string]*volume.Library {
	byPolicy := make(map[string]*volume.Library)
	libs := make(map[string]*volume.Library, len(fig8Names))
	for _, name := range fig8Names {
		sched, err := SchedulerByName(name)
		if err != nil {
			panic(err)
		}
		var policy volume.Decomposition = volume.MaxChunk{Chkmax: 512 * units.MB}
		if o, ok := sched.(core.DecompositionOverrider); ok {
			policy = o.Decomposition(32)
		}
		lib := byPolicy[policy.Name()]
		if lib == nil {
			lib = volume.NewLibrary()
			for i := 1; i <= 16; i++ {
				lib.Add(volume.NewDataset(volume.DatasetID(i), fmt.Sprintf("ds-%d", i), 4*units.GB, policy))
			}
			byPolicy[policy.Name()] = lib
		}
		libs[name] = lib
	}
	return libs
}

// runFig8Cell runs one (action count, scheduler) cell of the Fig. 8 sweep
// and returns its average scheduling cost per job.
func runFig8Cell(name string, lib *volume.Library, n, seconds int) time.Duration {
	sched, err := SchedulerByName(name)
	if err != nil {
		panic(err)
	}
	eng := sim.New(sim.Config{
		Nodes:     32,
		MemQuota:  8 * units.GB,
		Model:     core.System2CostModel(),
		Scheduler: sched,
		Library:   lib,
		Jitter:    Jitter,
		Seed:      int64(n),
		Preload:   true,
	})
	wl := workload.Generate(workload.Spec{
		Length:            units.Time(units.Duration(seconds) * units.Second),
		Datasets:          16,
		ContinuousActions: n,
		Seed:              int64(1000 + n),
	})
	return eng.Run(wl, 0).AvgSchedCostPerJob()
}

// Fig8ActionSweepN reproduces Fig. 8: scheduling cost per job versus number
// of simultaneous user actions on 32 nodes with 16 datasets of 4 GB,
// comparing OURS, FCFSL, and FCFSU. All (point, scheduler) cells run
// concurrently on up to workers goroutines. The Cost values are wall-clock
// measurements — record reference numbers with workers == 1.
func Fig8ActionSweepN(actionCounts []int, seconds, workers int) []Fig8Point {
	libs := fig8Libraries()
	out := make([]Fig8Point, len(actionCounts))
	costs := make([][]time.Duration, len(actionCounts))
	for i := range costs {
		costs[i] = make([]time.Duration, len(fig8Names))
	}
	ForEach(workers, len(actionCounts)*len(fig8Names), func(cell int) {
		pi, ni := cell/len(fig8Names), cell%len(fig8Names)
		name := fig8Names[ni]
		costs[pi][ni] = runFig8Cell(name, libs[name], actionCounts[pi], seconds)
	})
	for pi, n := range actionCounts {
		point := Fig8Point{Actions: n, Cost: make(map[string]time.Duration, len(fig8Names))}
		for ni, name := range fig8Names {
			point.Cost[name] = costs[pi][ni]
		}
		out[pi] = point
	}
	return out
}

// runFig9Point runs one dataset count of the Fig. 9 sweep.
func runFig9Point(n, seconds int) Fig9Point {
	sched := core.NewLocalityScheduler(0)
	policy := volume.MaxChunk{Chkmax: 512 * units.MB}
	lib := volume.NewLibrary()
	for i := 1; i <= n; i++ {
		lib.Add(volume.NewDataset(volume.DatasetID(i), fmt.Sprintf("ds-%d", i), 8*units.GB, policy))
	}
	eng := sim.New(sim.Config{
		Nodes:     16,
		MemQuota:  8 * units.GB,
		Model:     core.System2CostModel(),
		Scheduler: sched,
		Library:   lib,
		Jitter:    Jitter,
		Seed:      int64(n),
		Preload:   true,
	})
	hot := n
	if hot > 8 {
		hot = 8
	}
	wl := workload.Generate(workload.Spec{
		Length:            units.Time(units.Duration(seconds) * units.Second),
		Datasets:          n,
		ContinuousActions: 4,
		TargetBatch:       40 * seconds,
		BatchFramesMin:    20, BatchFramesMax: 60,
		HotDatasets: hot, HotFraction: 0.95,
		BatchUniform: true,
		Seed:         int64(2000 + n),
	})
	rep := eng.Run(wl, 0)
	return Fig9Point{
		Datasets:  n,
		Cost:      rep.AvgSchedCostPerJob(),
		Framerate: rep.MeanFramerate(),
		Latency:   rep.Interactive.Latency.Mean(),
	}
}

// Fig9DatasetSweepN reproduces Fig. 9: OURS scheduling cost, interactive
// framerate, and latency versus the number of 8 GB datasets in use on 16
// nodes with mixed interactive and batch jobs. Past 16 datasets the data
// exceeds the 128 GB total memory, the regime the bottom panels highlight.
// The sweep points run concurrently on up to workers goroutines. As with
// Fig. 8, the Cost column is wall-clock — record reference numbers with
// workers == 1; Framerate and Latency are virtual-time and identical at any
// worker count.
func Fig9DatasetSweepN(datasetCounts []int, seconds, workers int) []Fig9Point {
	out := make([]Fig9Point, len(datasetCounts))
	ForEach(workers, len(datasetCounts), func(i int) {
		out[i] = runFig9Point(datasetCounts[i], seconds)
	})
	return out
}
