package experiments

import (
	"io"
	"math/rand"

	"vizsched/internal/core"
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

// faultSchedules builds one Scenario 2 fault schedule per rate; every cell
// of a rate replays its schedule read-only, so differences between the
// cells of a rate are differences in recovery, not in luck.
func faultSchedules(cfg workload.ScenarioConfig, rates []float64) [][]sim.Failure {
	out := make([][]sim.Failure, len(rates))
	for i, rate := range rates {
		out[i] = FaultSchedule(cfg.Nodes, cfg.Spec.Length, rate, int64(cfg.ID)*104729)
	}
	return out
}

// runFaultCell plays Scenario 2 under one scheduler with the given fault
// schedule, replicating chunks k ways when k > 1 (k ≤ 1 leaves replication
// off), and distills the recovery metrics of the failure and replica sweeps.
func runFaultCell(cfg workload.ScenarioConfig, name string, k int, rate float64, faults []sim.Failure) ReplicaSweepPoint {
	sched, err := SchedulerByName(name)
	if err != nil {
		panic(err)
	}
	engCfg := sim.ScenarioEngineConfig(cfg, sched, Jitter)
	engCfg.Failures = faults
	if k > 1 {
		engCfg.Replicas = k
	}
	rep := sim.New(engCfg).Run(workload.Generate(cfg.Spec), 0)
	rc := &rep.Recovery
	depth, below := rc.FramerateDip(TargetFPS)
	return ReplicaSweepPoint{
		FailSweepPoint: FailSweepPoint{
			Rate:         rate,
			Scheduler:    rep.Scheduler,
			Framerate:    rep.MeanFramerate(),
			Latency:      rep.Interactive.Latency.Mean(),
			HitRate:      rep.HitRate(),
			Redispatched: rc.TasksRedispatched,
			MTTR:         rc.MTTR(),
			Unfinished: (rep.Interactive.Issued - rep.Interactive.Completed) +
				(rep.Batch.Issued - rep.Batch.Completed),
			DipDepth: depth,
			DipBelow: below,
		},
		K:              k,
		ServiceMTTR:    rc.ServiceMTTR(),
		ChunksRehomed:  rc.ChunksRehomed,
		ChunksReseeded: rc.ChunksReseeded,
	}
}

// FailureSweepN runs Scenario 2 under OURS, FCFSL, and FCFSU at each fault
// rate (faults per simulated minute). Every (rate, scheduler) cell is an
// independent simulation, so all cells run concurrently on up to workers
// goroutines. Results are grouped by rate, in failSweepNames order within
// each rate, and are deterministic: the same rates always produce
// bit-identical virtual-time metrics.
func FailureSweepN(rates []float64, scale float64, workers int) []FailSweepPoint {
	cfg := workload.Scenario(workload.Scenario2, scale)
	schedules := faultSchedules(cfg, rates)
	out := make([]FailSweepPoint, len(rates)*len(failSweepNames))
	ForEach(workers, len(out), func(cell int) {
		ri, ni := cell/len(failSweepNames), cell%len(failSweepNames)
		out[cell] = runFaultCell(cfg, failSweepNames[ni], 0, rates[ri], schedules[ri]).FailSweepPoint
	})
	return out
}

var failSweepHeader = []string{
	"faults_per_min", "scheduler", "fps", "interactive_latency_ms",
	"hit_rate_pct", "tasks_redispatched", "mttr_ms", "unfinished_jobs",
	"dip_depth_fps", "dip_below_target_s",
}

func (p FailSweepPoint) row() []string {
	return []string{
		f3(p.Rate),
		p.Scheduler,
		f3(p.Framerate),
		f3(p.Latency.Milliseconds()),
		f3(100 * p.HitRate),
		i64(p.Redispatched),
		f3(p.MTTR.Milliseconds()),
		i64(p.Unfinished),
		f3(p.DipDepth),
		f3(p.DipBelow.Seconds()),
	}
}

// FailureSweepCSV writes the failure sweep as CSV.
func FailureSweepCSV(w io.Writer, points []FailSweepPoint) error {
	return newTable("", failSweepHeader, points).WriteCSV(w)
}
