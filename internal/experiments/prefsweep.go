package experiments

import (
	"fmt"
	"io"
	"strconv"

	"vizsched/internal/core"
	"vizsched/internal/prefetch"
	"vizsched/internal/sim"
	"vizsched/internal/units"
	"vizsched/internal/volume"
	"vizsched/internal/workload"
)

// prefSweepModes compares demand-only loading against the predictive
// prefetching layer (§5.8) on the same workload.
var prefSweepModes = []string{"off", "on"}

// prefSweep cell geometry: a single-node arena where sessions revisit a
// small set of 512 MB single-chunk datasets in cyclic order. The cache
// quota (in chunks) is always below the dataset count, so without
// prefetching every session's first frame is a cold ~5 s load — the
// cost Def. 1's tio term assigns to a miss — while the prefetcher's
// frequency prior re-warms the evicted dataset during the inter-session
// idle gap.
const (
	prefSweepDatasets  = 4
	prefSweepChunk     = 512 * units.MB
	prefSweepSessions  = 16
	prefSweepBasePause = 8 * units.Second
)

// PrefetchSweepPoint is one (cache quota, load, mode) cell of the sweep.
type PrefetchSweepPoint struct {
	// QuotaChunks is the node's cache capacity in 512 MB chunks; the
	// working set is prefSweepDatasets chunks.
	QuotaChunks int
	// Load scales session arrival rate: the idle gap between sessions is
	// prefSweepBasePause/Load, so higher load leaves less room to warm.
	Load float64
	Mode string

	Sessions  int
	Completed int64
	// FirstFrame is the mean first-frame latency over sessions — the
	// session cold-start cost prefetching attacks.
	FirstFrame units.Duration
	P95        units.Duration
	// Prefetch lifecycle counters (zero in "off" mode).
	Issued, Loaded, Hits, HiddenHits, Wasted int64
	BytesMoved                               units.Bytes
}

// runPrefetchCell plays one cell of the sweep.
func runPrefetchCell(quotaChunks int, load float64, mode string) PrefetchSweepPoint {
	policy := volume.Decomposition(volume.MaxChunk{Chkmax: prefSweepChunk})
	lib := volume.NewLibrary()
	for i := 1; i <= prefSweepDatasets; i++ {
		lib.Add(volume.NewDataset(volume.DatasetID(i), fmt.Sprintf("rev-%d", i), prefSweepChunk, policy))
	}
	pause := units.Duration(float64(prefSweepBasePause) / load)
	wl := &workload.Schedule{}
	at := units.Time(0)
	for s := 0; s < prefSweepSessions; s++ {
		wl.Requests = append(wl.Requests, workload.Request{
			At:      at,
			Class:   core.Interactive,
			Action:  core.ActionID(s + 1),
			Dataset: volume.DatasetID(s%prefSweepDatasets + 1),
		})
		at = at.Add(pause)
	}
	wl.Length = at.Add(30 * units.Second)

	sched, err := SchedulerByName("OURS")
	if err != nil {
		panic(err)
	}
	cfg := sim.Config{
		Nodes:     1,
		MemQuota:  units.Bytes(quotaChunks) * prefSweepChunk,
		Model:     core.System1CostModel(),
		Scheduler: sched,
		Library:   lib,
		Jitter:    Jitter,
		Seed:      7,
	}
	if mode == "on" {
		cfg.Prefetch = prefetch.DefaultConfig()
	}
	rep := sim.New(cfg).Run(wl, 0)

	p := PrefetchSweepPoint{
		QuotaChunks: quotaChunks,
		Load:        load,
		Mode:        mode,
		Sessions:    prefSweepSessions,
		Completed:   rep.Interactive.Completed,
		FirstFrame:  rep.MeanFirstFrameLatency(),
		P95:         rep.Interactive.LatencyHist.P95(),
	}
	if rep.Prefetch != nil {
		p.Issued = rep.Prefetch.Issued
		p.Loaded = rep.Prefetch.Loaded
		p.Hits = rep.Prefetch.Hits
		p.HiddenHits = rep.Prefetch.HiddenHits
		p.Wasted = rep.Prefetch.Wasted
		p.BytesMoved = rep.Prefetch.BytesMoved
	}
	return p
}

// PrefetchSweepN runs the prefetch sweep: for each cache quota (in 512 MB
// chunks) and load multiplier, the demand-only baseline and the predictive
// prefetcher on the same session-revisit workload. Every cell is an
// independent simulation writing into an index-addressed slot on up to
// workers goroutines, so output order and values are bit-identical for any
// worker count.
func PrefetchSweepN(quotas []int, loads []float64, workers int) []PrefetchSweepPoint {
	out := make([]PrefetchSweepPoint, len(quotas)*len(loads)*len(prefSweepModes))
	ForEach(workers, len(out), func(cell int) {
		mi := cell % len(prefSweepModes)
		li := (cell / len(prefSweepModes)) % len(loads)
		qi := cell / (len(prefSweepModes) * len(loads))
		out[cell] = runPrefetchCell(quotas[qi], loads[li], prefSweepModes[mi])
	})
	return out
}

var prefSweepHeader = []string{
	"quota_chunks", "load", "mode", "sessions", "completed",
	"first_frame_ms", "p95_ms",
	"issued", "loaded", "hits", "hidden_hits", "wasted", "bytes_moved",
}

func (p PrefetchSweepPoint) row() []string {
	return []string{
		strconv.Itoa(p.QuotaChunks), f3(p.Load), p.Mode,
		strconv.Itoa(p.Sessions), i64(p.Completed),
		f3(p.FirstFrame.Milliseconds()), f3(p.P95.Milliseconds()),
		i64(p.Issued), i64(p.Loaded), i64(p.Hits), i64(p.HiddenHits), i64(p.Wasted),
		i64(int64(p.BytesMoved)),
	}
}

// PrefetchSweepCSV writes the prefetch sweep as CSV.
func PrefetchSweepCSV(w io.Writer, points []PrefetchSweepPoint) error {
	return newTable("", prefSweepHeader, points).WriteCSV(w)
}
