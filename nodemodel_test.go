package vizsched

import (
	"testing"

	"vizsched/internal/core"
	"vizsched/internal/experiments"
	"vizsched/internal/metrics"
	"vizsched/internal/sim"
	"vizsched/internal/units"
	"vizsched/internal/volume"
	"vizsched/internal/workload"
)

// nodeModels is the node-model ablation: the paper's serial node
// (Definition 1) and the three future-work node models, all under OURS on
// scenario 2. BenchmarkAblationNodeModel prints the rows and
// TestNodeModelGolden holds them to the values recorded below, so the
// ablation table in EXPERIMENTS.md is checked on every `go test`.
//
// The pinned quantities are those of scale 0.1, seed 7, recorded at the
// commit before the simulator's executors were merged (PR 19).
var nodeModels = []struct {
	name string
	mod  func(*sim.Config)

	fps     float64        // Report.MeanFramerate
	hitRate float64        // Report.HitRate
	latency units.Duration // Report.Interactive.Latency.Mean
	loads   int64          // Report.Loads
	busy    units.Duration // Report.BusyNodeTime
}{
	{"serial", func(*sim.Config) {},
		27.49327019396874, 0.9994807892004154, 1539748943, 4, 90534904863},
	{"overlap-io", func(c *sim.Config) { c.OverlapIO = true },
		24.37952527493584, 0.9995365005793743, 1116231512, 4, 68984954704},
	{"gpu-cache-1GB", func(c *sim.Config) { c.GPUCache = units.GB },
		4.604949277892431, 0.9857142857142858, 2635125199, 12, 110021793627},
	{"dual-gpu", func(c *sim.Config) { c.GPUsPerNode = 2 },
		33.27342260436194, 0.9995365005793743, 21818165, 4, 98839492296},
}

// runNodeModel plays scenario 2 at the given scale under OURS on one node
// model.
func runNodeModel(scale float64, mod func(*sim.Config)) *metrics.Report {
	base := workload.Scenario(workload.Scenario2, scale)
	cfg := sim.Config{
		Nodes:     base.Nodes,
		MemQuota:  base.MemQuota,
		Model:     core.System1CostModel(),
		Scheduler: core.NewLocalityScheduler(0),
		Library:   base.Library(volume.MaxChunk{Chkmax: base.Chkmax}),
		Jitter:    experiments.Jitter,
		Seed:      7,
		Preload:   true,
	}
	mod(&cfg)
	return sim.New(cfg).Run(workload.Generate(base.Spec), 0)
}

// TestNodeModelGolden pins the four node models' outcomes: overlapped I/O,
// the GPU cache and dual-GPU nodes appear in no other golden.
func TestNodeModelGolden(t *testing.T) {
	for _, m := range nodeModels {
		rep := runNodeModel(0.1, m.mod)
		fps, hit, lat := rep.MeanFramerate(), rep.HitRate(), rep.Interactive.Latency.Mean()
		if fps != m.fps || hit != m.hitRate || lat != m.latency || rep.Loads != m.loads || rep.BusyNodeTime != m.busy {
			t.Errorf("%s: fps %v, hit rate %v, latency %d, loads %d, busy %d; pinned %v, %v, %d, %d, %d",
				m.name, fps, hit, int64(lat), rep.Loads, int64(rep.BusyNodeTime),
				m.fps, m.hitRate, int64(m.latency), m.loads, int64(m.busy))
		}
	}
}
