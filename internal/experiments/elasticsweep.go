package experiments

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"vizsched/internal/autoscale"
	"vizsched/internal/core"
	"vizsched/internal/prefetch"
	"vizsched/internal/sim"
	"vizsched/internal/units"
	"vizsched/internal/volume"
	"vizsched/internal/workload"
)

// The elastic sweep (§5.12) prices the fixed fleet's idle capacity: a
// diurnal workload alternates busy phases (several concurrent interactive
// sessions plus a batch backlog) with long quiet valleys. The fixed fleet
// is provisioned for the peak and bills nodes × horizon; the elastic fleet
// runs the same OURS scheduler under the autoscale policy, draining nodes
// gracefully through the valleys and re-activating them when the next phase
// builds pressure. The headline claim: interactive p95 within a few percent
// of the fixed fleet at a ≥30% smaller node-hours bill, with zero tasks
// lost across every drain.

// elasticSweepModes compares the peak-provisioned fixed fleet against the
// elastic policy on the same diurnal workload.
var elasticSweepModes = []string{"fixed", "elastic"}

const (
	// elasticDatasets × elasticChunk working set; small enough that a few
	// nodes hold it warm, so valleys genuinely need almost no fleet.
	elasticDatasets = 4
	elasticChunk    = 256 * units.MB
	// elasticSessions concurrent viewers per busy phase, at elasticPeriod
	// per frame — the peak the fixed fleet is provisioned for.
	elasticSessions = 6
	elasticPeriod   = 150 * units.Millisecond
	// elasticBatch submissions land at each busy-phase start, so drains that
	// cut into a phase have queued batch work to migrate.
	elasticBatch = 8
)

// ElasticSweepPoint is one (fleet size, mode) cell of the sweep.
type ElasticSweepPoint struct {
	Nodes int
	Mode  string

	Issued    int64
	Completed int64
	// Lost is issued − completed: the acceptance gate demands zero in both
	// modes — a drain never loses work.
	Lost int64
	// P95 is the interactive latency tail over the whole run, ramps
	// included.
	P95 units.Duration
	// NodeHours is the capacity bill: nodes × horizon for the fixed fleet,
	// the active-node time-integral for the elastic one.
	NodeHours float64
	// SavingsPct is the elastic cell's bill reduction against the fixed
	// cell at the same fleet size (zero for fixed cells).
	SavingsPct float64

	ScaleUps        int64
	Drains          int64
	DrainsCompleted int64
	TasksMigrated   int64
	OrphanWarms     int64
	BringupWarms    int64
	MinActive       int
	MaxActive       int
}

// elasticWorkload builds the diurnal schedule over `seconds`: busy phases
// on [0, 0.2H) and [0.5H, 0.7H) — elasticSessions interactive sessions each
// plus a batch burst at phase start — and quiet valleys everywhere else.
func elasticWorkload(seconds int) *workload.Schedule {
	horizon := units.Time(seconds) * units.Time(units.Second)
	wl := &workload.Schedule{Length: horizon}
	phases := []struct{ from, to float64 }{{0, 0.2}, {0.5, 0.7}}
	action := core.ActionID(1)
	for pi, ph := range phases {
		start := units.Time(float64(horizon) * ph.from)
		end := units.Time(float64(horizon) * ph.to)
		for s := 0; s < elasticSessions; s++ {
			// Sessions stagger in behind the batch burst — the diurnal ramp
			// the policy rides up: the backlog at phase start triggers the
			// scale-ups, bring-up warms land on the new nodes, and the
			// interactive sessions arrive one at a time onto a fleet that is
			// already growing warm.
			a := workload.Action{
				ID:      action,
				Dataset: volume.DatasetID(1 + s%elasticDatasets),
				Tenant:  core.TenantID(s % 3),
				Start:   start.Add(2*units.Second + units.Duration(s)*2*units.Second),
				End:     end,
				Period:  elasticPeriod,
			}
			action++
			wl.Requests = append(wl.Requests, a.Requests()...)
		}
		for b := 0; b < elasticBatch; b++ {
			// The backlog leads the phase — the first submissions are the
			// queue pressure that triggers the scale-ups — then trickles in
			// through the ramp instead of head-of-line blocking the first
			// sessions on the small valley fleet.
			wl.Requests = append(wl.Requests, workload.Request{
				At:      start.Add(units.Duration(b) * units.Millisecond),
				Class:   core.Batch,
				Action:  action,
				Tenant:  3,
				Dataset: volume.DatasetID(1 + (pi*elasticBatch+b)%elasticDatasets),
			})
			action++
		}
	}
	sort.SliceStable(wl.Requests, func(i, j int) bool { return wl.Requests[i].At < wl.Requests[j].At })
	return wl
}

// elasticConfig builds one cell's cluster: OURS with prefetching (the
// evacuation warmer rides the same governor) and replication 2, elastic
// cells adding the autoscale policy tuned for the diurnal period.
func elasticConfig(nodes int, elastic bool) sim.Config {
	sched, err := SchedulerByName("OURS")
	if err != nil {
		panic(err)
	}
	policy := volume.Decomposition(volume.MaxChunk{Chkmax: elasticChunk})
	if o, ok := sched.(core.DecompositionOverrider); ok {
		policy = o.Decomposition(nodes)
	}
	lib := volume.NewLibrary()
	for i := 1; i <= elasticDatasets; i++ {
		lib.Add(volume.NewDataset(volume.DatasetID(i), fmt.Sprintf("diurnal-%d", i), units.GB, policy))
	}
	cfg := sim.Config{
		Nodes:     nodes,
		MemQuota:  2 * units.GB,
		Model:     core.System2CostModel(),
		Scheduler: sched,
		Library:   lib,
		Seed:      11,
		Preload:   true,
		Replicas:  2,
		// TopK must cover the whole working set (elasticDatasets datasets ×
		// the per-fleet decomposition) or bring-up warms leave a cold tail,
		// and the frequency prior must survive the quiet valley (HalfLife ≫
		// the 10 s default) or the predictor forgets the working set before
		// the next phase's bring-ups ask for it.
		Prefetch: &prefetch.Config{TopK: 128, HalfLife: 60 * units.Second, MinScore: 0.001},
	}
	if elastic {
		cfg.Autoscale = &autoscale.Config{
			Interval:  100 * units.Millisecond,
			MinNodes:  2,
			QueueHigh: 0.5,
			QueueLow:  0.1,
			HoldUp:    1,
			HoldDown:  30,
			Cooldown:  100 * units.Millisecond,
			MaxDrain:  10 * units.Second,
			Warmup:    15 * units.Second,
			// Bring-up warms run every cache full by design, so full caches
			// are the steady state here, not a reason to hold a drain: the
			// valley fleet serves almost nothing and can re-load at leisure.
			CacheHighWater: 1,
		}
	}
	return cfg
}

// runElasticCell plays the diurnal scenario on one fleet in one mode.
func runElasticCell(nodes int, mode string, seconds int) ElasticSweepPoint {
	elastic := mode == "elastic"
	rep := sim.New(elasticConfig(nodes, elastic)).Run(elasticWorkload(seconds), 0)
	issued := rep.Interactive.Issued + rep.Batch.Issued
	completed := rep.Interactive.Completed + rep.Batch.Completed
	p := ElasticSweepPoint{
		Nodes:     nodes,
		Mode:      mode,
		Issued:    issued,
		Completed: completed,
		Lost:      issued - completed,
		P95:       rep.Interactive.LatencyHist.P95(),
		NodeHours: float64(nodes) * rep.Horizon.Seconds() / 3600,
	}
	if as := rep.Autoscale; as != nil {
		p.NodeHours = as.NodeHours()
		p.ScaleUps = as.ScaleUps
		p.Drains = as.Drains
		p.DrainsCompleted = as.DrainsCompleted
		p.TasksMigrated = as.TasksMigrated
		p.OrphanWarms = as.OrphanWarms
		p.BringupWarms = as.BringupWarms
		p.MinActive = as.MinActive
		p.MaxActive = as.MaxActive
	}
	return p
}

// ElasticSweepN runs the elastic sweep on up to workers goroutines. Every
// cell is an independent virtual-time simulation into an index-addressed
// slot, and the derived savings pair cells positionally, so results are
// bit-identical at any worker count.
func ElasticSweepN(fleets []int, scale float64, workers int) []ElasticSweepPoint {
	seconds := int(120 * scale)
	if seconds < 20 {
		seconds = 20
	}
	out := make([]ElasticSweepPoint, len(fleets)*len(elasticSweepModes))
	ForEach(workers, len(out), func(cell int) {
		mi := cell % len(elasticSweepModes)
		fi := cell / len(elasticSweepModes)
		out[cell] = runElasticCell(fleets[fi], elasticSweepModes[mi], seconds)
	})
	for fi := range fleets {
		fixed := out[fi*len(elasticSweepModes)]
		for mi := 1; mi < len(elasticSweepModes); mi++ {
			p := &out[fi*len(elasticSweepModes)+mi]
			if fixed.NodeHours > 0 {
				p.SavingsPct = 100 * (1 - p.NodeHours/fixed.NodeHours)
			}
		}
	}
	return out
}

var elasticSweepHeader = []string{
	"nodes", "mode", "issued", "completed", "lost", "interactive_p95_ms",
	"node_hours", "savings_pct", "scale_ups", "drains", "drains_completed",
	"tasks_migrated", "orphan_warms", "bringup_warms", "min_active", "max_active",
}

func (p ElasticSweepPoint) row() []string {
	return []string{
		strconv.Itoa(p.Nodes), p.Mode, i64(p.Issued), i64(p.Completed), i64(p.Lost),
		f3(p.P95.Milliseconds()), f3(p.NodeHours), f3(p.SavingsPct),
		i64(p.ScaleUps), i64(p.Drains), i64(p.DrainsCompleted),
		i64(p.TasksMigrated), i64(p.OrphanWarms), i64(p.BringupWarms),
		strconv.Itoa(p.MinActive), strconv.Itoa(p.MaxActive),
	}
}

// ElasticSweepCSV writes the elastic sweep as CSV.
func ElasticSweepCSV(w io.Writer, points []ElasticSweepPoint) error {
	return newTable("", elasticSweepHeader, points).WriteCSV(w)
}
