// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI): the pipeline-stage breakdown of Fig. 2, the scenario
// configurations of Table II, the per-scheduler scenario results of
// Figs. 4–7, the hit-rate/scheduling-cost summary of Table III, and the
// scaling sweeps of Figs. 8 and 9. Both cmd/vizbench and the repository's
// benchmarks drive these entry points, so the printed artifacts and the
// benchmarked code paths are the same.
package experiments

import (
	"fmt"
	"io"
	"time"

	"vizsched/internal/baselines"
	"vizsched/internal/core"
	"vizsched/internal/metrics"
	"vizsched/internal/units"
	"vizsched/internal/workload"
)

// Schedulers returns fresh instances of all six scheduling policies in the
// paper's presentation order: FS, SF, FCFS, FCFSU, FCFSL, OURS.
func Schedulers() []core.Scheduler {
	return []core.Scheduler{
		baselines.NewFS(0),
		baselines.NewSF(0),
		baselines.FCFS{},
		baselines.FCFSU{},
		baselines.FCFSL{},
		core.NewLocalityScheduler(0),
	}
}

// SchedulerByName returns a fresh instance of the named policy. Beyond the
// paper's six, "DELAY" selects the delay-scheduling extension (the paper's
// reference [26]) and "DFRS" the dynamic fractional resource scheduling
// baseline (§5.13, arXiv:1106.4985).
func SchedulerByName(name string) (core.Scheduler, error) {
	if name == "DELAY" {
		return baselines.NewDelay(0, 0), nil
	}
	if name == "DFRS" {
		return baselines.NewDFRS(0, 0), nil
	}
	for _, s := range Schedulers() {
		if s.Name() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown scheduler %q (want FS, SF, FCFS, FCFSU, FCFSL, OURS, DELAY, or DFRS)", name)
}

// Jitter is the execution-time noise used by all experiment runs; it keeps
// the prediction-correction path honest without breaking determinism.
const Jitter = 0.05

// Fig2Row is one pipeline stage of Fig. 2.
type Fig2Row struct {
	Stage string
	Time  units.Duration
}

// Fig2Pipeline walks one 512 MB chunk through the visualization pipeline on
// both cost models and returns the stage costs — the paper's point being
// the orders-of-magnitude gap between data I/O and everything after it.
func Fig2Pipeline(model core.CostModel, chunk units.Bytes, group int) []Fig2Row {
	return []Fig2Row{
		{"disk -> main memory", model.DiskRate.TimeFor(chunk)},
		{"main memory -> GPU", model.PCIeRate.TimeFor(chunk)},
		{"ray casting", model.RenderTime(chunk)},
		{"image compositing", model.CompositeTime(group)},
		{"dispatch + return", model.TaskOverhead},
	}
}

// WriteFig2 prints the Fig. 2 breakdown for both systems.
func WriteFig2(w io.Writer) {
	for _, sys := range []struct {
		name  string
		model core.CostModel
	}{
		{"System 1 (8-node GTX 285 cluster)", core.System1CostModel()},
		{"System 2 (ANL GPU cluster)", core.System2CostModel()},
	} {
		fmt.Fprintf(w, "Fig 2 — pipeline stage costs, 512MB chunk, 16-node group — %s\n", sys.name)
		for _, r := range Fig2Pipeline(sys.model, 512*units.MB, 16) {
			fmt.Fprintf(w, "  %-22s %12v\n", r.Stage, r.Time.Std())
		}
		m := sys.model
		fmt.Fprintf(w, "  %-22s %12v   (tio dominates: miss/hit = %.0fx)\n\n",
			"total (cold chunk)", m.MissExec(512*units.MB, 16).Std(),
			float64(m.MissExec(512*units.MB, 16))/float64(m.HitExec(512*units.MB, 16)))
	}
}

// WriteTableII prints the scenario configurations and verifies the generated
// workloads hit Table II's job counts.
func WriteTableII(w io.Writer, scale float64) {
	fmt.Fprintf(w, "Table II — four scenarios (scale=%.2f)\n", scale)
	fmt.Fprintf(w, "  %-9s %6s %12s %10s %12s %9s %10s %12s\n",
		"scenario", "nodes", "total mem", "datasets", "total size", "length", "batch", "interactive")
	for id := workload.Scenario1; id <= workload.Scenario4; id++ {
		cfg := workload.Scenario(id, scale)
		wl := workload.Generate(cfg.Spec)
		fmt.Fprintf(w, "  %-9d %6d %12v %10d %12v %8.0fs %10d %12d\n",
			cfg.ID, cfg.Nodes, cfg.TotalMemory(), cfg.DatasetCount, cfg.TotalData(),
			cfg.Spec.Length.Seconds(), wl.BatchCount(), wl.InteractiveCount())
	}
	fmt.Fprintln(w)
}

// PrintScenario prints one scenario figure (Fig. 4, 5, 6, or 7) from
// already-computed reports, so cmd/vizbench can compute all scenarios in
// parallel and still emit them in canonical order.
func PrintScenario(w io.Writer, id workload.ScenarioID, scale float64, reports []*metrics.Report) {
	fig := map[workload.ScenarioID]string{
		workload.Scenario1: "Fig 4 — Scenario 1 (8 nodes, fully cacheable, interactive only)",
		workload.Scenario2: "Fig 5 — Scenario 2 (8 nodes, 24GB data on 16GB memory, mixed)",
		workload.Scenario3: "Fig 6 — Scenario 3 (64 nodes, light load, mixed)",
		workload.Scenario4: "Fig 7 — Scenario 4 (64 nodes, 1TB heavy load, mixed)",
	}
	fmt.Fprintf(w, "%s  (scale=%.2f, target 33.33 fps)\n", fig[id], scale)
	fmt.Fprintf(w, "  %-6s %9s %12s %12s %12s %9s\n",
		"sched", "fps", "int-latency", "batch-lat", "batch-work", "hit-rate")
	for _, r := range reports {
		fmt.Fprintf(w, "  %-6s %9.2f %12v %12v %12v %8.2f%%\n",
			r.Scheduler, r.MeanFramerate(),
			r.Interactive.Latency.Mean().Std().Round(time.Millisecond),
			r.Batch.Latency.Mean().Std().Round(time.Millisecond),
			r.Batch.Working.Mean().Std().Round(time.Millisecond),
			100*r.HitRate())
	}
	fmt.Fprintln(w)
}

// WriteTableIII prints hit rates and average scheduling costs for the four
// schedulers Table III covers, from already-collected scenario reports
// keyed by scenario ID.
func WriteTableIII(w io.Writer, results map[workload.ScenarioID][]*metrics.Report) {
	fmt.Fprintln(w, "Table III — data reuse hit rates and average scheduling costs")
	fmt.Fprintf(w, "  %-9s %-10s %10s %10s %10s %10s\n",
		"scenario", "metric", "FS", "FCFSU", "FCFSL", "OURS")
	pick := func(rs []*metrics.Report, name string) *metrics.Report {
		for _, r := range rs {
			if r.Scheduler == name {
				return r
			}
		}
		return nil
	}
	for id := workload.Scenario1; id <= workload.Scenario4; id++ {
		rs := results[id]
		if rs == nil {
			continue
		}
		fmt.Fprintf(w, "  %-9d %-10s", id, "hit rate")
		for _, n := range []string{"FS", "FCFSU", "FCFSL", "OURS"} {
			fmt.Fprintf(w, " %9.2f%%", 100*pick(rs, n).HitRate())
		}
		fmt.Fprintf(w, "\n  %-9s %-10s", "", "avg cost")
		for _, n := range []string{"FS", "FCFSU", "FCFSL", "OURS"} {
			fmt.Fprintf(w, " %10v", pick(rs, n).AvgSchedCostPerJob().Round(100*time.Nanosecond))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// Fig8Point is one sample of the user-action sweep.
type Fig8Point struct {
	Actions int
	Cost    map[string]time.Duration // scheduler -> avg scheduling cost per job
}

// PrintFig8 prints already-computed action-sweep points.
func PrintFig8(w io.Writer, points []Fig8Point) {
	fmt.Fprintln(w, "Fig 8 — scheduling cost vs number of user actions (32 nodes, 16x4GB datasets)")
	fmt.Fprintf(w, "  %-8s %12s %12s %12s\n", "actions", "FCFSU", "FCFSL", "OURS")
	for _, p := range points {
		fmt.Fprintf(w, "  %-8d %12v %12v %12v\n",
			p.Actions,
			p.Cost["FCFSU"].Round(100*time.Nanosecond),
			p.Cost["FCFSL"].Round(100*time.Nanosecond),
			p.Cost["OURS"].Round(100*time.Nanosecond))
	}
	fmt.Fprintln(w)
}

// Fig9Point is one sample of the dataset sweep.
type Fig9Point struct {
	Datasets  int
	Cost      time.Duration
	Framerate float64
	Latency   units.Duration
}

// PrintFig9 prints already-computed dataset-sweep points.
func PrintFig9(w io.Writer, points []Fig9Point) {
	fmt.Fprintln(w, "Fig 9 — OURS vs number of 8GB datasets (16 nodes, 128GB total memory)")
	fmt.Fprintf(w, "  %-9s %12s %10s %12s\n", "datasets", "sched cost", "fps", "int-latency")
	for _, p := range points {
		fmt.Fprintf(w, "  %-9d %12v %10.2f %12v\n",
			p.Datasets, p.Cost.Round(100*time.Nanosecond), p.Framerate,
			p.Latency.Std().Round(time.Millisecond))
	}
	fmt.Fprintln(w)
}
