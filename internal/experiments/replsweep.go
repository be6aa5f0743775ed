package experiments

import (
	"io"
	"strconv"

	"vizsched/internal/units"
	"vizsched/internal/workload"
)

// ReplicaSweepPoint is one (fault rate, replication degree) cell of the
// replica sweep: the failure sweep's metrics plus what replication did.
type ReplicaSweepPoint struct {
	FailSweepPoint
	// K is the replication degree: 0 marks the FCFSU baseline (replication
	// does not apply to a scheduler that ignores locality), 1 is OURS
	// without the replication layer (the paper's behaviour), ≥2 enables the
	// spread + re-homing policy.
	K int
	// ServiceMTTR caps each down interval of MTTR at the moment re-homing
	// restored warm service (§5.6), so the gap between the two is the time
	// replication bought back.
	ServiceMTTR units.Duration
	// ChunksRehomed/ChunksReseeded count how failures were absorbed: homes
	// moved warm to a surviving replica versus dropped cold for rarest-first
	// re-seeding.
	ChunksRehomed  int64
	ChunksReseeded int64
}

// ReplicaSweepN runs the replica sweep: for each fault rate, an FCFSU
// baseline row (K=0) followed by an OURS row per replication degree in ks.
// Every cell is an independent simulation, so all cells run concurrently on
// up to workers goroutines, and a rate's fault schedule is the failure
// sweep's for the same rate. Results are grouped by rate — FCFSU first,
// then OURS in ks order — and are deterministic: the same inputs always
// produce bit-identical virtual-time metrics, whatever the worker count.
func ReplicaSweepN(ks []int, rates []float64, scale float64, workers int) []ReplicaSweepPoint {
	cfg := workload.Scenario(workload.Scenario2, scale)
	schedules := faultSchedules(cfg, rates)
	perRate := 1 + len(ks)
	out := make([]ReplicaSweepPoint, len(rates)*perRate)
	ForEach(workers, len(out), func(cell int) {
		ri, ci := cell/perRate, cell%perRate
		if ci == 0 {
			out[cell] = runFaultCell(cfg, "FCFSU", 0, rates[ri], schedules[ri])
		} else {
			out[cell] = runFaultCell(cfg, "OURS", ks[ci-1], rates[ri], schedules[ri])
		}
	})
	return out
}

var replicaSweepHeader = []string{
	"faults_per_min", "scheduler", "replicas", "fps",
	"interactive_latency_ms", "hit_rate_pct", "tasks_redispatched",
	"mttr_ms", "service_mttr_ms", "chunks_rehomed", "chunks_reseeded",
	"dip_depth_fps", "dip_below_target_s",
}

func (p ReplicaSweepPoint) row() []string {
	return []string{
		f3(p.Rate),
		p.Scheduler,
		strconv.Itoa(p.K),
		f3(p.Framerate),
		f3(p.Latency.Milliseconds()),
		f3(100 * p.HitRate),
		i64(p.Redispatched),
		f3(p.MTTR.Milliseconds()),
		f3(p.ServiceMTTR.Milliseconds()),
		i64(p.ChunksRehomed),
		i64(p.ChunksReseeded),
		f3(p.DipDepth),
		f3(p.DipBelow.Seconds()),
	}
}

// ReplicaSweepCSV writes the replica sweep as CSV.
func ReplicaSweepCSV(w io.Writer, points []ReplicaSweepPoint) error {
	return newTable("", replicaSweepHeader, points).WriteCSV(w)
}
