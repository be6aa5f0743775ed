package experiments

import (
	"io"
	"strconv"

	"vizsched/internal/qos"
	"vizsched/internal/sim"
	"vizsched/internal/units"
	"vizsched/internal/workload"
)

// qosSweepModes are the two queueing disciplines the sweep compares: the
// head's original single FIFO and the QoS subsystem (per-tenant admission
// control + deficit-round-robin fair queuing + degradation ladder).
var qosSweepModes = []string{"FIFO", "QoS"}

// QoSSweepPoint is one (tenant skew, load, mode) cell of the QoS sweep.
type QoSSweepPoint struct {
	// Skew is the tenant Zipf exponent (0 = uniform demand across tenants).
	Skew float64
	// Load is the demand multiplier: Load×6 continuous users on the
	// Scenario 1 cluster, whose render capacity is ~6 users at target rate.
	Load float64
	Mode string

	Actions   int
	Framerate float64
	Latency   units.Duration
	P95       units.Duration
	// Jain is Jain's fairness index over per-tenant interactive completions:
	// 1 when every tenant got equal service, 1/n when one tenant got it all.
	Jain      float64
	Issued    int64
	Completed int64
	// QoS-mode decision counters (zero under FIFO).
	Admitted, Throttled, Rejected, Shed int64
	MaxLevel, FinalLevel                int
}

// SweepQoSConfig is the controller configuration the sweep (and the demo
// binaries) use: per-tenant interactive rates sized to the Scenario 1
// cluster's fair share (~200 frames/s across 4 tenants), batch metered at a
// background trickle, and latest-frame-wins shedding so the queue cannot
// grow without bound under overload.
func SweepQoSConfig() *qos.Config {
	return &qos.Config{
		InteractiveRate: 55, InteractiveBurst: 28,
		BatchRate: 25, BatchBurst: 50,
		AlwaysShedStale: true,
	}
}

// runQoSCell plays one cell: Scenario 1's cluster, Load×6 continuous users
// split over 4 tenants by Zipf(skew), under OURS with or without QoS.
func runQoSCell(scale, skew, load float64, mode string) QoSSweepPoint {
	cfg := workload.Scenario(workload.Scenario1, scale)
	cfg.Spec.ContinuousActions = int(6*load + 0.5)
	cfg.Spec.Tenants = 4
	cfg.Spec.TenantSkew = skew
	sched, err := SchedulerByName("OURS")
	if err != nil {
		panic(err)
	}
	engCfg := sim.ScenarioEngineConfig(cfg, sched, Jitter)
	if mode == "QoS" {
		engCfg.QoS = SweepQoSConfig()
	}
	rep := sim.New(engCfg).Run(workload.Generate(cfg.Spec), 0)

	p := QoSSweepPoint{
		Skew: skew, Load: load, Mode: mode,
		Actions:   cfg.Spec.ContinuousActions,
		Framerate: rep.MeanFramerate(),
		Latency:   rep.Interactive.Latency.Mean(),
		P95:       rep.Interactive.LatencyHist.P95(),
		Jain:      rep.JainFairness(),
		Issued:    rep.Interactive.Issued,
		Completed: rep.Interactive.Completed,
	}
	if rep.QoS != nil {
		p.Admitted = rep.QoS.Admitted
		p.Throttled = rep.QoS.Throttled
		p.Rejected = rep.QoS.Rejected
		p.Shed = rep.QoS.Shed
		p.MaxLevel = rep.QoS.MaxLevel
		p.FinalLevel = rep.QoS.FinalLevel
	}
	return p
}

// QoSSweepN runs the multi-tenant QoS sweep: for each tenant skew and load
// multiplier, the FIFO baseline and the QoS subsystem on the same generated
// workload. Results are grouped by (skew, load) with modes in qosSweepModes
// order. Every cell is an independent simulation, so all cells run
// concurrently on up to workers goroutines into index-addressed slots —
// output order and values are identical for any worker count.
func QoSSweepN(skews, loads []float64, scale float64, workers int) []QoSSweepPoint {
	out := make([]QoSSweepPoint, len(skews)*len(loads)*len(qosSweepModes))
	ForEach(workers, len(out), func(cell int) {
		mi := cell % len(qosSweepModes)
		li := (cell / len(qosSweepModes)) % len(loads)
		si := cell / (len(qosSweepModes) * len(loads))
		out[cell] = runQoSCell(scale, skews[si], loads[li], qosSweepModes[mi])
	})
	return out
}

var qosSweepHeader = []string{
	"tenant_skew", "load", "mode", "users", "fps",
	"interactive_latency_ms", "p95_ms", "jain_fairness",
	"issued", "completed", "admitted", "throttled", "rejected", "shed",
	"max_level", "final_level",
}

func (p QoSSweepPoint) row() []string {
	return []string{
		f3(p.Skew), f3(p.Load), p.Mode, strconv.Itoa(p.Actions), f3(p.Framerate),
		f3(p.Latency.Milliseconds()), f3(p.P95.Milliseconds()), f3(p.Jain),
		i64(p.Issued), i64(p.Completed), i64(p.Admitted), i64(p.Throttled), i64(p.Rejected), i64(p.Shed),
		strconv.Itoa(p.MaxLevel), strconv.Itoa(p.FinalLevel),
	}
}

// QoSSweepCSV writes the QoS sweep as CSV.
func QoSSweepCSV(w io.Writer, points []QoSSweepPoint) error {
	return newTable("", qosSweepHeader, points).WriteCSV(w)
}
