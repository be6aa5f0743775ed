package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"vizsched/internal/metrics"
	"vizsched/internal/sim"
	"vizsched/internal/units"
	"vizsched/internal/workload"
)

// ReplicaSweepPoint is one (fault rate, replication degree) cell of the
// replica sweep. K is 0 for the FCFSU baseline row (replication does not
// apply to a scheduler that ignores locality) and the OURS target degree
// otherwise.
type ReplicaSweepPoint struct {
	// Rate is the injected fault rate in faults per simulated minute.
	Rate      float64
	Scheduler string
	// K is the replication degree: 0 marks the FCFSU baseline, 1 is OURS
	// without the replication layer (the paper's behaviour), ≥2 enables the
	// spread + re-homing policy.
	K int

	Framerate    float64
	Latency      units.Duration
	HitRate      float64
	Redispatched int64
	// MTTR is the raw node down → repair mean; ServiceMTTR caps each down
	// interval at the moment re-homing restored warm service (§5.6), so the
	// gap between the two is the time replication bought back.
	MTTR        units.Duration
	ServiceMTTR units.Duration
	// ChunksRehomed/ChunksReseeded count how failures were absorbed: homes
	// moved warm to a surviving replica versus dropped cold for rarest-first
	// re-seeding.
	ChunksRehomed  int64
	ChunksReseeded int64
	// DipDepth/DipBelow are how far under TargetFPS the worst one-second
	// window fell after the first fault, and the total time spent under it.
	DipDepth float64
	DipBelow units.Duration
}

// runReplicaCell plays Scenario 2 under one (scheduler, k) pair with the
// given fault schedule and distills the recovery metrics.
func runReplicaCell(cfg workload.ScenarioConfig, name string, k int, rate float64, faults []sim.Failure) ReplicaSweepPoint {
	sched, err := SchedulerByName(name)
	if err != nil {
		panic(err)
	}
	engCfg := sim.ScenarioEngineConfig(cfg, sched, Jitter)
	engCfg.Failures = faults
	if k > 1 {
		engCfg.Replicas = k
	}
	eng := sim.New(engCfg)
	wl := workload.Generate(cfg.Spec)
	rep := eng.Run(wl, 0)
	return replicaPoint(rate, k, rep)
}

// replicaPoint distills one report into a sweep point.
func replicaPoint(rate float64, k int, rep *metrics.Report) ReplicaSweepPoint {
	depth, below := rep.Recovery.FramerateDip(TargetFPS)
	return ReplicaSweepPoint{
		Rate:           rate,
		Scheduler:      rep.Scheduler,
		K:              k,
		Framerate:      rep.MeanFramerate(),
		Latency:        rep.Interactive.Latency.Mean(),
		HitRate:        rep.HitRate(),
		Redispatched:   rep.Recovery.TasksRedispatched,
		MTTR:           rep.Recovery.MTTR(),
		ServiceMTTR:    rep.Recovery.ServiceMTTR(),
		ChunksRehomed:  rep.Recovery.ChunksRehomed,
		ChunksReseeded: rep.Recovery.ChunksReseeded,
		DipDepth:       depth,
		DipBelow:       below,
	}
}

// ReplicaSweepN runs the replica sweep: for each fault rate, an FCFSU
// baseline row (K=0) followed by an OURS row per replication degree in ks.
// Every cell is an independent simulation, so all cells run concurrently on
// up to workers goroutines. The fault
// schedule for a rate is built once (identical to the failure sweep's for
// the same rate) and replayed by every cell of that rate, so differences
// between degrees are differences in recovery policy, not in luck. Results
// are grouped by rate — FCFSU first, then OURS in ks order — and are
// deterministic: the same inputs always produce bit-identical virtual-time
// metrics, whatever the worker count.
func ReplicaSweepN(ks []int, rates []float64, scale float64, workers int) []ReplicaSweepPoint {
	cfg := workload.Scenario(workload.Scenario2, scale)
	schedules := make([][]sim.Failure, len(rates))
	for i, rate := range rates {
		schedules[i] = FaultSchedule(cfg.Nodes, cfg.Spec.Length, rate, int64(cfg.ID)*104729)
	}
	perRate := 1 + len(ks)
	out := make([]ReplicaSweepPoint, len(rates)*perRate)
	ForEach(workers, len(out), func(cell int) {
		ri, ci := cell/perRate, cell%perRate
		if ci == 0 {
			out[cell] = runReplicaCell(cfg, "FCFSU", 0, rates[ri], schedules[ri])
		} else {
			out[cell] = runReplicaCell(cfg, "OURS", ks[ci-1], rates[ri], schedules[ri])
		}
	})
	return out
}

// PrintReplicaSweep prints already-computed replica-sweep points.
func PrintReplicaSweep(w io.Writer, points []ReplicaSweepPoint) {
	fmt.Fprintf(w, "Replica sweep — Scenario 2, OURS at k replicas vs FCFSU, chaos fault mix, target %.2f fps\n", TargetFPS)
	fmt.Fprintf(w, "  %-10s %-6s %2s %8s %9s %9s %9s %7s %7s %10s %10s\n",
		"faults/min", "sched", "k", "fps", "hit-rate", "MTTR", "svc-MTTR", "rehome", "reseed", "dip-depth", "dip-time")
	last := -1.0
	for _, p := range points {
		if p.Rate != last && last >= 0 {
			fmt.Fprintln(w)
		}
		last = p.Rate
		k := "-"
		if p.K > 0 {
			k = strconv.Itoa(p.K)
		}
		fmt.Fprintf(w, "  %-10.1f %-6s %2s %8.2f %8.2f%% %9v %9v %7d %7d %10.2f %10v\n",
			p.Rate, p.Scheduler, k, p.Framerate,
			100*p.HitRate,
			p.MTTR.Std().Round(time.Millisecond),
			p.ServiceMTTR.Std().Round(time.Millisecond),
			p.ChunksRehomed, p.ChunksReseeded,
			p.DipDepth, p.DipBelow.Std())
	}
	fmt.Fprintln(w)
}

// ReplicaSweepCSV writes the replica sweep as CSV.
func ReplicaSweepCSV(w io.Writer, points []ReplicaSweepPoint) error {
	cw := csv.NewWriter(w)
	header := []string{
		"faults_per_min", "scheduler", "replicas", "fps",
		"interactive_latency_ms", "hit_rate_pct", "tasks_redispatched",
		"mttr_ms", "service_mttr_ms", "chunks_rehomed", "chunks_reseeded",
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
			strconv.Itoa(p.K),
			f(p.Framerate),
			f(p.Latency.Milliseconds()),
			f(100 * p.HitRate),
			strconv.FormatInt(p.Redispatched, 10),
			f(p.MTTR.Milliseconds()),
			f(p.ServiceMTTR.Milliseconds()),
			strconv.FormatInt(p.ChunksRehomed, 10),
			strconv.FormatInt(p.ChunksReseeded, 10),
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
