package experiments

import (
	"fmt"
	"io"
	"sort"

	"vizsched/internal/core"
	"vizsched/internal/fracshare"
	"vizsched/internal/sim"
	"vizsched/internal/units"
	"vizsched/internal/volume"
	"vizsched/internal/workload"
)

// The frac sweep (§5.13) prices fractional capacity on a mixed workload:
// several interactive sessions hold their nodes near the frame period while
// a steady cold batch backlog oversubscribes the cluster. Three comparisons
// fall out of one run per mode:
//
//   - Batch scheduling vs late binding: the FCFS family commits every task
//     to a node FIFO at arrival, so residency mispredictions over a deep
//     backlog drain the FIFOs unevenly — nodes go idle behind another
//     node's convoy while committed work still queues there. DFRS re-binds
//     each window and packs nodes with fractional slots, the utilization
//     and stretch gap the DFRS paper measures against batch scheduling.
//   - ε-guard idle: OURS refuses to fill recently-interactive nodes with
//     batch misses; GuardIdle vs QueueIdle splits the idle it buys.
//   - Co-scheduling: OURS+co runs one cached batch guest at CoShare inside
//     the guard window, preempted to share zero the instant a frame lands —
//     reclaiming guard idle into batch throughput at (ideally) no
//     interactive tail cost.
var fracSweepModes = []string{"FCFS", "FCFSL", "DFRS", "OURS", "OURS+co"}

const (
	fracNodes = 8
	// fracDatasets × 1 GB at fracChunk chunks against fracNodes × 2 GB of
	// memory: dataset 1 is the interactive working set and fits every node
	// warm; the batch backlog cycles the rest, slightly overflowing cluster
	// memory so reuse is marginal — batch residency predictions keep going
	// stale, which is what disperses the FCFS family's committed FIFOs.
	fracDatasets = 18
	fracChunk    = 256 * units.MB
	// fracSessions concurrent viewers of dataset 1 at fracPeriod per frame,
	// spanning the whole horizon — the interactive load the ε-guard protects.
	// One shared dataset keeps the interactive footprint cache-resident under
	// every policy, so the comparison ranks batch scheduling, not whether a
	// policy thrashes the viewers' chunks.
	fracSessions = 4
	fracPeriod   = 120 * units.Millisecond
	// The batch backlog lands as one burst of fracBatchPerSecond × horizon
	// jobs just after the sessions start — slightly more cold work than the
	// cluster can finish. A burst, not a trickle, is what exposes the
	// commit-at-arrival pathology: the FCFS family binds the whole backlog
	// to node FIFOs at t≈2s on predictions that then go stale, and the nodes
	// whose FIFOs drain early idle for the rest of the run because no new
	// arrivals refill them. DFRS holds the excess in the queue and re-binds
	// every window, so a free slot anywhere always pulls the next job.
	fracBatchPerSecond = 3
)

// FracSweepPoint is one mode's outcome on the shared mixed workload.
type FracSweepPoint struct {
	Mode string

	Fps float64
	// P95 is the interactive latency tail — the co-scheduling acceptance
	// gate: OURS+co must hold OURS's tail while reclaiming its guard idle.
	P95 units.Duration
	// Utilization is the mean node busy fraction: the busy-share integral
	// for fractional modes, executed-work time over nodes × horizon for
	// serial ones — both "fraction of node-time occupied".
	Utilization    float64
	BatchCompleted int64
	// StretchMean is the mean batch slowdown relative to running alone
	// (latency over the job's largest task execution) — the DFRS fairness
	// metric.
	StretchMean float64

	// GuardIdle/QueueIdle split idle-with-pending-batch time (§5.13); both
	// zero for the on-arrival FCFS family.
	GuardIdle units.Duration
	QueueIdle units.Duration
	// ReclaimedPct is the share of guard idle the co-scheduled guests ran
	// in; CoScheduled/CoCompleted/Preemptions summarize the guest traffic.
	ReclaimedPct float64
	CoScheduled  int64
	CoCompleted  int64
	Preemptions  int64
}

// fracWorkload builds the shared schedule over `seconds`: fracSessions
// staggered interactive sessions spanning the horizon plus one burst of
// batch jobs at t≈2s cycling the cold datasets.
func fracWorkload(seconds int) *workload.Schedule {
	horizon := units.Time(seconds) * units.Time(units.Second)
	wl := &workload.Schedule{Length: horizon}
	action := core.ActionID(1)
	for s := 0; s < fracSessions; s++ {
		a := workload.Action{
			ID:      action,
			Dataset: 1,
			Tenant:  core.TenantID(s % 3),
			Start:   units.Time(0).Add(units.Second + units.Duration(s)*500*units.Millisecond),
			End:     horizon.Add(-units.Second),
			Period:  fracPeriod,
		}
		action++
		wl.Requests = append(wl.Requests, a.Requests()...)
	}
	for b := 0; b < seconds*fracBatchPerSecond; b++ {
		wl.Requests = append(wl.Requests, workload.Request{
			At:      units.Time(0).Add(2*units.Second + units.Duration(b)*units.Millisecond),
			Class:   core.Batch,
			Action:  action,
			Tenant:  3,
			Dataset: volume.DatasetID(2 + b%(fracDatasets-1)),
		})
		action++
	}
	sort.SliceStable(wl.Requests, func(i, j int) bool { return wl.Requests[i].At < wl.Requests[j].At })
	return wl
}

// fracConfig builds one mode's cluster. DFRS pairs with slots-only
// fracshare (CoShare < 0: no guests); OURS+co adds guest co-scheduling at
// the default share; the serial modes leave FracShare nil.
func fracConfig(mode string) sim.Config {
	name := mode
	if mode == "OURS+co" {
		name = "OURS"
	}
	sched, err := SchedulerByName(name)
	if err != nil {
		panic(err)
	}
	policy := volume.Decomposition(volume.MaxChunk{Chkmax: fracChunk})
	if o, ok := sched.(core.DecompositionOverrider); ok {
		policy = o.Decomposition(fracNodes)
	}
	lib := volume.NewLibrary()
	for i := 1; i <= fracDatasets; i++ {
		lib.Add(volume.NewDataset(volume.DatasetID(i), fmt.Sprintf("frac-%d", i), units.GB, policy))
	}
	cfg := sim.Config{
		Nodes:     fracNodes,
		MemQuota:  2 * units.GB,
		Model:     core.System2CostModel(),
		Scheduler: sched,
		Library:   lib,
		Seed:      7,
		Jitter:    Jitter,
		Preload:   true,
	}
	switch mode {
	case "DFRS":
		cfg.FracShare = &fracshare.Config{CoShare: -1}
	case "OURS+co":
		cfg.FracShare = &fracshare.Config{}
	}
	return cfg
}

// runFracCell plays the shared workload under one mode.
func runFracCell(mode string, seconds int) FracSweepPoint {
	rep := sim.New(fracConfig(mode)).Run(fracWorkload(seconds), 0)
	p := FracSweepPoint{
		Mode:           mode,
		Fps:            rep.MeanFramerate(),
		P95:            rep.Interactive.LatencyHist.P95(),
		Utilization:    rep.Utilization(),
		BatchCompleted: rep.Batch.Completed,
		StretchMean:    rep.BatchStretch.Mean(),
		GuardIdle:      rep.GuardIdle,
		QueueIdle:      rep.QueueIdle,
	}
	if fs := rep.FracShare; fs != nil {
		// The busy-share integral is the occupancy a fractional node actually
		// delivered; BusyNodeTime would credit started-but-unfinished work.
		var busy units.Duration
		for _, d := range fs.NodeBusy {
			busy += d
		}
		p.Utilization = busy.Seconds() / (float64(rep.Nodes) * rep.Horizon.Seconds())
		p.ReclaimedPct = fs.ReclaimedPct(rep.GuardIdle)
		p.CoScheduled = fs.CoScheduled
		p.CoCompleted = fs.CoCompleted
		p.Preemptions = fs.Preemptions
	}
	return p
}

// FracSweepN runs the frac sweep on up to workers goroutines. Every mode is
// an independent virtual-time simulation into an index-addressed slot, so
// results are bit-identical at any worker count.
func FracSweepN(scale float64, workers int) []FracSweepPoint {
	seconds := int(90 * scale)
	if seconds < 20 {
		seconds = 20
	}
	out := make([]FracSweepPoint, len(fracSweepModes))
	ForEach(workers, len(out), func(cell int) {
		out[cell] = runFracCell(fracSweepModes[cell], seconds)
	})
	return out
}

var fracSweepHeader = []string{
	"mode", "fps", "interactive_p95_ms", "utilization_pct", "batch_completed",
	"stretch_mean", "guard_idle_s", "queue_idle_s", "reclaimed_pct",
	"co_scheduled", "co_completed", "preemptions",
}

func (p FracSweepPoint) row() []string {
	return []string{
		p.Mode, f3(p.Fps), f3(p.P95.Milliseconds()), f3(100 * p.Utilization),
		i64(p.BatchCompleted), f3(p.StretchMean),
		f3(p.GuardIdle.Seconds()), f3(p.QueueIdle.Seconds()), f3(p.ReclaimedPct),
		i64(p.CoScheduled), i64(p.CoCompleted), i64(p.Preemptions),
	}
}

// FracSweepCSV writes the frac sweep as CSV.
func FracSweepCSV(w io.Writer, points []FracSweepPoint) error {
	return newTable("", fracSweepHeader, points).WriteCSV(w)
}
