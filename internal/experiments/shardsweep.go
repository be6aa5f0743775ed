package experiments

import (
	"io"
	"sort"
	"strconv"

	"vizsched/internal/core"
	"vizsched/internal/shard"
	"vizsched/internal/sim"
	"vizsched/internal/units"
	"vizsched/internal/volume"
	"vizsched/internal/workload"
)

// The shard sweep (§5.11) measures control-plane scaling: sessions arrive
// at several times one head's admission capacity, so a single dispatcher is
// the bottleneck by construction and throughput should grow near-linearly
// with shard count until the data plane saturates.

// shardSweepAdmit is the modeled per-admission control-plane cost: 2ms
// serializes one shard at 500 sessions/s.
const shardSweepAdmit = 2 * units.Millisecond

// shardSweepRate is the arrival rate, 3.5× one shard's admission capacity.
const shardSweepRate = 1750

// ShardSweepPoint is one shard-count cell of the sweep.
type ShardSweepPoint struct {
	Shards int

	Issued    int64
	Completed int64
	// Donated counts batch jobs adopted across shards through the donation
	// board; zero at one shard by definition.
	Donated int64
	// Throughput is completed sessions per second of simulated time.
	Throughput float64
	// Speedup is this cell's completions over the 1-shard cell's — the
	// headline near-linear-scaling number.
	Speedup float64
	Latency units.Duration
	// InvariantErr is non-empty if the cross-shard property suite failed:
	// dual session ownership, ring-inconsistent admission, or a structurally
	// unsound directory.
	InvariantErr string
	Directory    shard.Stats
}

// shardSweepConfig builds the overload cluster: plenty of render capacity
// (16 nodes, small warm datasets) so admission, not rendering, is scarce.
func shardSweepConfig(shards int) sim.Config {
	lib := volume.NewLibrary()
	policy := volume.Decomposition(volume.MaxChunk{Chkmax: 256 * units.MB})
	for i := 1; i <= 8; i++ {
		lib.Add(volume.NewDataset(volume.DatasetID(i), "ds", 64*units.MB, policy))
	}
	return sim.Config{
		Nodes:    16,
		MemQuota: 2 * units.GB,
		Model:    core.System1CostModel(),
		NewScheduler: func() core.Scheduler {
			s, err := SchedulerByName("OURS")
			if err != nil {
				panic(err)
			}
			return s
		},
		Library:  lib,
		Seed:     1,
		Preload:  true,
		Shards:   shards,
		Donation: shards > 1,
		HeadCost: &shard.HeadCost{
			Admit:    shardSweepAdmit,
			Dispatch: 50 * units.Microsecond,
			Complete: 20 * units.Microsecond,
		},
	}
}

// shardSweepWorkload is the overload arrival stream: interactive
// single-frame sessions (each its own action, so the ring spreads them) at
// shardSweepRate, plus one tenant's early batch flood that lands entirely
// on its owning shard — the donation board's reason to exist.
func shardSweepWorkload(seconds int) *workload.Schedule {
	wl := &workload.Schedule{Length: units.Time(seconds) * units.Time(units.Second)}
	gap := units.Second / units.Duration(shardSweepRate)
	var at units.Time
	id := core.ActionID(1)
	for at < wl.Length {
		wl.Requests = append(wl.Requests, workload.Request{
			At:      at,
			Class:   core.Interactive,
			Action:  id,
			Dataset: volume.DatasetID(1 + int(id)%8),
		})
		id++
		at = at.Add(gap)
	}
	for i := 0; i < 120; i++ {
		wl.Requests = append(wl.Requests, workload.Request{
			At:      units.Time(units.Duration(i) * units.Millisecond),
			Class:   core.Batch,
			Action:  id + core.ActionID(i),
			Tenant:  7,
			Dataset: volume.DatasetID(1 + i%8),
		})
	}
	sort.SliceStable(wl.Requests, func(i, j int) bool { return wl.Requests[i].At < wl.Requests[j].At })
	return wl
}

// runShardCell plays the overload scenario at one shard count.
func runShardCell(shards, seconds int) ShardSweepPoint {
	se := sim.NewSharded(shardSweepConfig(shards))
	rep := se.Run(shardSweepWorkload(seconds), 0)
	p := ShardSweepPoint{
		Shards:     shards,
		Issued:     rep.JobsIssued(),
		Completed:  rep.JobsCompleted(),
		Donated:    rep.Donated,
		Throughput: float64(rep.JobsCompleted()) / float64(seconds),
		Latency:    rep.MeanInteractiveLatency(),
		Directory:  rep.Directory,
	}
	if err := se.InvariantCheck(); err != nil {
		p.InvariantErr = err.Error()
	}
	return p
}

// ShardSweepN runs the shard-scaling sweep on up to workers goroutines.
// Every cell is an independent virtual-time simulation into an
// index-addressed slot, so the results — including the derived speedups —
// are bit-identical at any worker count.
func ShardSweepN(shardCounts []int, scale float64, workers int) []ShardSweepPoint {
	seconds := int(8 * scale)
	if seconds < 2 {
		seconds = 2
	}
	out := make([]ShardSweepPoint, len(shardCounts))
	ForEach(workers, len(out), func(cell int) {
		out[cell] = runShardCell(shardCounts[cell], seconds)
	})
	for i := range out {
		if out[0].Completed > 0 {
			out[i].Speedup = float64(out[i].Completed) / float64(out[0].Completed)
		}
	}
	return out
}

var shardSweepHeader = []string{
	"shards", "issued", "completed", "sessions_per_s", "speedup",
	"donated", "interactive_latency_ms", "dir_chunks", "dir_lookups",
	"dir_hits", "dir_publishes", "invariant_error",
}

func (p ShardSweepPoint) row() []string {
	return []string{
		strconv.Itoa(p.Shards), i64(p.Issued), i64(p.Completed),
		f3(p.Throughput), f3(p.Speedup), i64(p.Donated),
		f3(p.Latency.Milliseconds()),
		strconv.Itoa(p.Directory.Chunks), i64(p.Directory.Lookups),
		i64(p.Directory.Hits), i64(p.Directory.Publishes),
		p.InvariantErr,
	}
}

// ShardSweepCSV writes the shard sweep as CSV.
func ShardSweepCSV(w io.Writer, points []ShardSweepPoint) error {
	return newTable("", shardSweepHeader, points).WriteCSV(w)
}
