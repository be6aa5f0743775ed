package experiments

import (
	"io"

	"vizsched/internal/core"
	"vizsched/internal/sim"
	"vizsched/internal/units"
	"vizsched/internal/workload"
)

// haSweepModes are the control-plane fault shapes the HA sweep compares:
// a clean run, a head crash (snapshot+journal standby takeover, §5.10), and
// the same crash overlapped with a node partition that heals while the head
// is still down — the worst ordering for the resync epoch.
var haSweepModes = []string{"clean", "headcrash", "crash+part"}

// HASweepPoint is one (outage fraction, mode) cell of the HA sweep.
type HASweepPoint struct {
	// Outage is the head's downtime as a fraction of the run horizon; the
	// crash lands at 40% of the horizon so recovery is observable before the
	// end cuts the tail off.
	Outage float64
	Mode   string

	Framerate float64
	Latency   units.Duration
	// ControlMTTR is the measured control-plane outage span — by
	// construction exactly Outage×horizon for the faulted modes.
	ControlMTTR units.Duration
	// ArrivalsDeferred/ResultsDeferred count the work buffered across the
	// outage: requests held at admission and completion reports retained on
	// the nodes for the resync epoch.
	ArrivalsDeferred int64
	ResultsDeferred  int64
	// CommittedAtCrash is the committed-session count the instant the head
	// died; CommittedLost is how far below it the recovered head came back —
	// the headline number, structurally zero.
	CommittedAtCrash int64
	CommittedLost    int64
	// Redispatched counts tasks that re-rendered; a control-plane fault
	// must never cause any.
	Redispatched int64
	// Unfinished counts jobs issued but not completed by the horizon — the
	// frames the outage cost the user.
	Unfinished int64
	// DipDepth/DipBelow are how far under TargetFPS the worst one-second
	// window fell after the crash, and the total time spent under it.
	DipDepth  float64
	DipBelow  units.Duration
	Issued    int64
	Completed int64
}

// haFaults builds the fault schedule for one mode: the head crash spans
// [40%, 40%+outage] of the horizon; crash+part additionally partitions node 1
// shortly before the crash and heals it mid-outage, so its retained reports
// must wait for the head's repair rather than the heal.
func haFaults(mode string, length units.Time, outage float64) []sim.Failure {
	if mode == "clean" || outage <= 0 {
		return nil
	}
	crashAt := units.Time(float64(length) * 0.4)
	repairAt := crashAt.Add(units.Duration(float64(length) * outage))
	fs := []sim.Failure{{Kind: sim.FaultHeadCrash, At: crashAt, RepairAt: repairAt}}
	if mode == "crash+part" {
		fs = append(fs, sim.Failure{
			Kind:     sim.FaultPartition,
			Node:     core.NodeID(1),
			At:       units.Time(float64(length) * 0.35),
			RepairAt: crashAt.Add(units.Duration(float64(length) * outage / 2)),
		})
	}
	return fs
}

// runHACell plays Scenario 2 under OURS with one control-plane fault shape
// and distills the recovery metrics.
func runHACell(cfg workload.ScenarioConfig, mode string, outage float64) HASweepPoint {
	sched, err := SchedulerByName("OURS")
	if err != nil {
		panic(err)
	}
	engCfg := sim.ScenarioEngineConfig(cfg, sched, Jitter)
	engCfg.Failures = haFaults(mode, cfg.Spec.Length, outage)
	rep := sim.New(engCfg).Run(workload.Generate(cfg.Spec), 0)

	rc := &rep.Recovery
	depth, below := rc.FramerateDip(TargetFPS)
	return HASweepPoint{
		Outage:           outage,
		Mode:             mode,
		Framerate:        rep.MeanFramerate(),
		Latency:          rep.Interactive.Latency.Mean(),
		ControlMTTR:      rc.ControlMTTR(),
		ArrivalsDeferred: rc.ArrivalsDeferred,
		ResultsDeferred:  rc.ResultsDeferred,
		CommittedAtCrash: rc.CommittedAtCrash,
		CommittedLost:    rc.CommittedLost,
		Redispatched:     rc.TasksRedispatched,
		Unfinished: (rep.Interactive.Issued - rep.Interactive.Completed) +
			(rep.Batch.Issued - rep.Batch.Completed),
		DipDepth:  depth,
		DipBelow:  below,
		Issued:    rep.Interactive.Issued,
		Completed: rep.Interactive.Completed,
	}
}

// HASweepN runs the head-failover sweep: Scenario 2 under OURS for each
// outage fraction, in the three haSweepModes. Results are grouped by outage
// with modes in haSweepModes order. Every (outage, mode) cell is an
// independent simulation, so all cells run concurrently on up to workers
// goroutines into index-addressed slots; the whole sweep runs in virtual
// time, so values are bit-identical at any worker count.
func HASweepN(outages []float64, scale float64, workers int) []HASweepPoint {
	cfg := workload.Scenario(workload.Scenario2, scale)
	out := make([]HASweepPoint, len(outages)*len(haSweepModes))
	ForEach(workers, len(out), func(cell int) {
		mi := cell % len(haSweepModes)
		oi := cell / len(haSweepModes)
		out[cell] = runHACell(cfg, haSweepModes[mi], outages[oi])
	})
	return out
}

var haSweepHeader = []string{
	"outage_fraction", "mode", "fps", "interactive_latency_ms",
	"control_mttr_ms", "arrivals_deferred", "results_deferred",
	"committed_at_crash", "committed_lost", "tasks_redispatched",
	"unfinished_jobs", "dip_depth_fps", "dip_below_target_s",
	"issued", "completed",
}

func (p HASweepPoint) row() []string {
	return []string{
		f3(p.Outage), p.Mode, f3(p.Framerate),
		f3(p.Latency.Milliseconds()),
		f3(p.ControlMTTR.Milliseconds()),
		i64(p.ArrivalsDeferred), i64(p.ResultsDeferred),
		i64(p.CommittedAtCrash), i64(p.CommittedLost), i64(p.Redispatched),
		i64(p.Unfinished), f3(p.DipDepth), f3(p.DipBelow.Seconds()),
		i64(p.Issued), i64(p.Completed),
	}
}

// HASweepCSV writes the HA sweep as CSV.
func HASweepCSV(w io.Writer, points []HASweepPoint) error {
	return newTable("", haSweepHeader, points).WriteCSV(w)
}
