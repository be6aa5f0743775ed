package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"time"

	"vizsched/internal/core"
	"vizsched/internal/metrics"
	"vizsched/internal/sim"
	"vizsched/internal/units"
	"vizsched/internal/workload"
)

// failSweepNames are the schedulers the failure sweep compares — the same
// trio as Fig. 8, which is where the paper's baselines stay competitive.
var failSweepNames = []string{"FCFSU", "FCFSL", "OURS"}

// TargetFPS is the interactive service target the recovery metrics measure
// dips against (the paper's 33.33 fps goal).
const TargetFPS = 100.0 / 3.0

// FailSweepPoint is one (fault rate, scheduler) cell of the failure sweep.
type FailSweepPoint struct {
	// Rate is the injected fault rate in faults per simulated minute.
	Rate      float64
	Scheduler string

	Framerate    float64
	Latency      units.Duration
	HitRate      float64
	Redispatched int64
	MTTR         units.Duration
	// Unfinished counts jobs issued but not completed by the horizon.
	Unfinished int64
	// DipDepth/DipBelow are how far under TargetFPS the worst one-second
	// window fell after the first fault, and the total time spent under it.
	DipDepth float64
	DipBelow units.Duration
}

// FaultSchedule derives a deterministic chaos schedule from a fault rate:
// rate faults per simulated minute over the horizon, mixing all four fault
// kinds, targets and times drawn from a seed that depends only on (rate,
// seed). Every scheduler in a sweep cell replays the identical schedule, so
// differences between policies are differences in recovery, not in luck.
func FaultSchedule(nodes int, length units.Time, rate float64, seed int64) []sim.Failure {
	count := int(rate*length.Seconds()/60 + 0.5)
	if count <= 0 || nodes <= 1 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed ^ int64(rate*1000)*0x1f3b))
	fs := make([]sim.Failure, 0, count)
	for i := 0; i < count; i++ {
		// Keep faults inside the middle 80% of the run so recovery is
		// observable before the horizon cuts the tail off.
		at := units.Time(float64(length) * (0.1 + 0.8*rng.Float64()))
		f := sim.Failure{
			At:   at,
			Node: core.NodeID(rng.Intn(nodes)),
			Kind: sim.FaultKind(rng.Intn(4)),
		}
		switch f.Kind {
		case sim.FaultCrash:
			f.RepairAt = at.Add(units.Duration(2+rng.Intn(6)) * units.Second)
		case sim.FaultSlowDisk:
			f.Factor = 2 + 6*rng.Float64()
			f.RepairAt = at.Add(units.Duration(5+rng.Intn(10)) * units.Second)
		case sim.FaultStall:
			f.RepairAt = at.Add(units.Duration(1+rng.Intn(4)) * units.Second)
		case sim.FaultFlap:
			f.Period = units.Duration(4+rng.Intn(4)) * units.Second
			f.Count = 2 + rng.Intn(2)
			f.Seed = rng.Int63()
		}
		fs = append(fs, f)
	}
	return fs
}

// runFailCell plays Scenario 2 under one scheduler with the given fault
// schedule and distills the recovery metrics.
func runFailCell(cfg workload.ScenarioConfig, name string, rate float64, faults []sim.Failure) FailSweepPoint {
	sched, err := SchedulerByName(name)
	if err != nil {
		panic(err)
	}
	engCfg := sim.ScenarioEngineConfig(cfg, sched, Jitter)
	engCfg.Failures = faults
	eng := sim.New(engCfg)
	wl := workload.Generate(cfg.Spec)
	rep := eng.Run(wl, 0)
	return failPoint(rate, rep)
}

// failPoint distills one report into a sweep point.
func failPoint(rate float64, rep *metrics.Report) FailSweepPoint {
	depth, below := rep.Recovery.FramerateDip(TargetFPS)
	return FailSweepPoint{
		Rate:         rate,
		Scheduler:    rep.Scheduler,
		Framerate:    rep.MeanFramerate(),
		Latency:      rep.Interactive.Latency.Mean(),
		HitRate:      rep.HitRate(),
		Redispatched: rep.Recovery.TasksRedispatched,
		MTTR:         rep.Recovery.MTTR(),
		Unfinished: (rep.Interactive.Issued - rep.Interactive.Completed) +
			(rep.Batch.Issued - rep.Batch.Completed),
		DipDepth: depth,
		DipBelow: below,
	}
}

// FailureSweepN runs Scenario 2 under OURS, FCFSL, and FCFSU at each fault
// rate (faults per simulated minute). Every (rate, scheduler) cell is an
// independent simulation, so all cells run concurrently on up to workers
// goroutines. Results are grouped by rate, in failSweepNames order within
// each rate, and are deterministic: the same rates always produce
// bit-identical virtual-time metrics. The fault schedule for a rate is built
// once and shared read-only across that rate's schedulers.
func FailureSweepN(rates []float64, scale float64, workers int) []FailSweepPoint {
	cfg := workload.Scenario(workload.Scenario2, scale)
	schedules := make([][]sim.Failure, len(rates))
	for i, rate := range rates {
		schedules[i] = FaultSchedule(cfg.Nodes, cfg.Spec.Length, rate, int64(cfg.ID)*104729)
	}
	out := make([]FailSweepPoint, len(rates)*len(failSweepNames))
	ForEach(workers, len(out), func(cell int) {
		ri, ni := cell/len(failSweepNames), cell%len(failSweepNames)
		out[cell] = runFailCell(cfg, failSweepNames[ni], rates[ri], schedules[ri])
	})
	return out
}

// PrintFailureSweep prints already-computed failure-sweep points.
func PrintFailureSweep(w io.Writer, points []FailSweepPoint) {
	fmt.Fprintf(w, "Failure sweep — Scenario 2 under a chaos fault mix (crash/slowdisk/stall/flap), target %.2f fps\n", TargetFPS)
	fmt.Fprintf(w, "  %-10s %-6s %8s %12s %9s %8s %9s %10s %10s\n",
		"faults/min", "sched", "fps", "int-latency", "hit-rate", "redisp", "MTTR", "dip-depth", "dip-time")
	last := -1.0
	for _, p := range points {
		if p.Rate != last && last >= 0 {
			fmt.Fprintln(w)
		}
		last = p.Rate
		fmt.Fprintf(w, "  %-10.1f %-6s %8.2f %12v %8.2f%% %8d %9v %10.2f %10v\n",
			p.Rate, p.Scheduler, p.Framerate,
			p.Latency.Std().Round(time.Millisecond),
			100*p.HitRate, p.Redispatched,
			p.MTTR.Std().Round(time.Millisecond),
			p.DipDepth, p.DipBelow.Std())
	}
	fmt.Fprintln(w)
}

// FailureSweepCSV writes the failure sweep as CSV.
func FailureSweepCSV(w io.Writer, points []FailSweepPoint) error {
	cw := csv.NewWriter(w)
	header := []string{
		"faults_per_min", "scheduler", "fps", "interactive_latency_ms",
		"hit_rate_pct", "tasks_redispatched", "mttr_ms", "unfinished_jobs",
		"dip_depth_fps", "dip_below_target_s",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
	for _, p := range points {
		rec := []string{
			f(p.Rate),
			p.Scheduler,
			f(p.Framerate),
			f(p.Latency.Milliseconds()),
			f(100 * p.HitRate),
			strconv.FormatInt(p.Redispatched, 10),
			f(p.MTTR.Milliseconds()),
			strconv.FormatInt(p.Unfinished, 10),
			f(p.DipDepth),
			f(p.DipBelow.Seconds()),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
