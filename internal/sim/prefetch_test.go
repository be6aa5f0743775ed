package sim

import (
	"fmt"
	"slices"
	"testing"

	"vizsched/internal/baselines"
	"vizsched/internal/core"
	"vizsched/internal/metrics"
	"vizsched/internal/prefetch"
	"vizsched/internal/trace"
	"vizsched/internal/units"
	"vizsched/internal/volume"
	"vizsched/internal/workload"
)

// scrubWorkload is a time-series scrub: one interactive action stepping
// through consecutive datasets, one frame per step — the trajectory shape
// the Markov predictor is built for. Every step is a cold first frame
// without prefetching.
func scrubWorkload(datasets int, period units.Duration, length units.Time) *workload.Schedule {
	s := &workload.Schedule{Length: length}
	at := units.Time(0)
	for i := 1; i <= datasets; i++ {
		s.Requests = append(s.Requests, workload.Request{
			At: at, Class: core.Interactive, Action: 1, Dataset: volume.DatasetID(i),
		})
		at = at.Add(period)
	}
	return s
}

// scrubConfig builds the single-node scrub arena: eight 512 MB single-chunk
// datasets, System 1 disks (a miss load runs ~5.4 s), no preload so every
// step is cold without help.
func scrubConfig() Config {
	policy := volume.Decomposition(volume.MaxChunk{Chkmax: 512 * units.MB})
	lib := volume.NewLibrary()
	for i := 1; i <= 8; i++ {
		lib.Add(volume.NewDataset(volume.DatasetID(i), "scrub", 512*units.MB, policy))
	}
	return Config{
		Nodes:     1,
		MemQuota:  4 * units.GB,
		Model:     core.System1CostModel(),
		Scheduler: core.NewLocalityScheduler(0),
		Library:   lib,
		Seed:      11,
	}
}

func runScrub(pf *prefetch.Config) *metrics.Report {
	cfg := scrubConfig()
	cfg.Prefetch = pf
	e := New(cfg)
	return e.Run(scrubWorkload(8, 6500*units.Millisecond, units.Time(70*units.Second)), 0)
}

// TestPrefetchSimScrubWarmsAhead drives the dataset scrub with prefetch on:
// once the predictor has seen the first few steps it warms the next dataset
// during the idle window, so later steps land as hits or absorb the
// in-flight load (hidden hits), and the mean first-frame latency drops
// against the same run with prefetch off.
func TestPrefetchSimScrubWarmsAhead(t *testing.T) {
	off := runScrub(nil)
	on := runScrub(prefetch.DefaultConfig())

	if off.Prefetch != nil {
		t.Fatal("prefetch-off run carries a prefetch outcome")
	}
	if on.Prefetch == nil {
		t.Fatal("prefetch-on run missing its outcome")
	}
	po := on.Prefetch
	if po.Issued == 0 {
		t.Fatal("no warms issued across a predictable scrub")
	}
	if po.Hits+po.HiddenHits < 3 {
		t.Fatalf("scrub should convert most steps: hits=%d hidden=%d (outcome %v)",
			po.Hits, po.HiddenHits, po)
	}
	if po.HiddenHits < 1 {
		t.Fatalf("long loads against a short period should absorb at least one warm in flight: %v", po)
	}

	// A single action scrubbing can't improve its own first frame (nothing
	// is trained yet) — the win shows in the mean step latency: later steps
	// land warm instead of paying the full 5.4 s load.
	offLat, onLat := off.Interactive.Latency.Mean(), on.Interactive.Latency.Mean()
	if float64(onLat) > 0.8*float64(offLat) {
		t.Fatalf("mean scrub-step latency did not improve >=20%%: off=%v on=%v", offLat, onLat)
	}
	// The scrub is the best case; demand job count must be unaffected.
	if off.Interactive.Completed != on.Interactive.Completed {
		t.Fatalf("prefetch changed demand completions: off=%d on=%d",
			off.Interactive.Completed, on.Interactive.Completed)
	}
}

// TestPrefetchSimDeterminism: identical configs must produce bit-identical
// reports — the planner, governor, and absorption paths all run in virtual
// time with no rng draws of their own.
func TestPrefetchSimDeterminism(t *testing.T) {
	key := func(r *metrics.Report) string {
		return fmt.Sprintf("%v|%v|%v|%d", r.MeanFirstFrameLatency(), r.MeanFramerate(), r.Prefetch, r.Interactive.Completed)
	}
	a := runScrub(prefetch.DefaultConfig())
	b := runScrub(prefetch.DefaultConfig())
	if key(a) != key(b) {
		t.Fatalf("prefetch run not deterministic:\n%s\n%s", key(a), key(b))
	}
}

// TestPrefetchSimOverlapAbsorption exercises the overlap-IO absorption
// path: a demand task arriving for a chunk mid-warm must wait only the
// remaining load time and count as a hidden hit.
func TestPrefetchSimOverlapAbsorption(t *testing.T) {
	cfg := scrubConfig()
	cfg.OverlapIO = true
	cfg.Prefetch = prefetch.DefaultConfig()
	e := New(cfg)
	r := e.Run(scrubWorkload(8, 6500*units.Millisecond, units.Time(70*units.Second)), 0)
	if r.Prefetch == nil || r.Prefetch.Hits+r.Prefetch.HiddenHits == 0 {
		t.Fatalf("overlap mode converted nothing: %v", r.Prefetch)
	}
}

// TestPrefetchSimInertUnderBaseline: a scheduler that cannot host the
// planner (no PrefetchSetter) leaves the config setting inert — same
// results as off, no outcome in the report.
func TestPrefetchSimInertUnderBaseline(t *testing.T) {
	run := func(pf *prefetch.Config) *metrics.Report {
		cfg := scrubConfig()
		cfg.Scheduler = baselines.NewSF(0)
		cfg.Prefetch = pf
		return New(cfg).Run(scrubWorkload(8, 6500*units.Millisecond, units.Time(70*units.Second)), 0)
	}
	off := run(nil)
	on := run(prefetch.DefaultConfig())
	if on.Prefetch != nil {
		t.Fatal("baseline scheduler produced a prefetch outcome")
	}
	if off.MeanFirstFrameLatency() != on.MeanFirstFrameLatency() ||
		off.Interactive.Completed != on.Interactive.Completed {
		t.Fatal("inert prefetch config changed baseline results")
	}
}

// TestPrefetchSimOffBitIdentical: with prefetch nil, a run over a standard
// scenario must match a second plain run exactly — the wiring adds no rng
// draws, no cache mutations, and no trace events when disabled.
func TestPrefetchSimOffBitIdentical(t *testing.T) {
	run := func() *metrics.Report {
		cfg := workload.Scenario(workload.Scenario1, 0.25)
		return RunScenario(cfg, core.NewLocalityScheduler(0), 0.05)
	}
	a, b := run(), run()
	ka := fmt.Sprintf("%v|%v|%d|%d", a.MeanFramerate(), a.MeanFirstFrameLatency(), a.Interactive.Completed, a.Batch.Completed)
	kb := fmt.Sprintf("%v|%v|%d|%d", b.MeanFramerate(), b.MeanFirstFrameLatency(), b.Interactive.Completed, b.Batch.Completed)
	if ka != kb {
		t.Fatalf("plain scenario runs diverged:\n%s\n%s", ka, kb)
	}
	if a.Prefetch != nil {
		t.Fatal("prefetch outcome present on a plain run")
	}
}

// TestPrefetchSimCrashCancelsWarm: a node crash mid-warm abandons the
// in-flight warm and wastes any already-landed prefetched chunks, without
// wedging the run.
func TestPrefetchSimCrashCancelsWarm(t *testing.T) {
	cfg := scrubConfig()
	cfg.Nodes = 2
	cfg.Prefetch = prefetch.DefaultConfig()
	cfg.Failures = []Failure{{At: units.Time(20 * units.Second), Node: 0, RepairAt: units.Time(30 * units.Second)}}
	e := New(cfg)
	r := e.Run(scrubWorkload(8, 6500*units.Millisecond, units.Time(70*units.Second)), 0)
	if r.Interactive.Completed == 0 {
		t.Fatal("run wedged after crash with prefetch enabled")
	}
	if e.QueueLen() != 0 {
		t.Fatalf("queue not drained after recovery: %d", e.QueueLen())
	}
}

// TestPrefetchSimTracesEveryWaste: every warm the head tables settle as
// wasted — displaced by a later warm, evicted by demand, or lost with a
// crashed node — is one prefetch-waste trace event, in the same order on
// every run. The small quotas make the scrub's warms evict each other.
func TestPrefetchSimTracesEveryWaste(t *testing.T) {
	// Two landed warms, both untouched, die with the node at 30 s.
	crash := []Failure{{At: units.Time(30 * units.Second), Node: 0, RepairAt: units.Time(35 * units.Second)}}
	for _, tc := range []struct {
		name     string
		nodes    int
		quota    units.Bytes
		failures []Failure
	}{
		{"quota 1GB", 1, units.GB, nil},
		{"quota 2GB", 1, 2 * units.GB, nil},
		{"crash", 1, units.GB, crash},
	} {
		run := func() (*metrics.Report, []trace.Event) {
			cfg := scrubConfig()
			cfg.Nodes, cfg.MemQuota, cfg.Failures = tc.nodes, tc.quota, tc.failures
			cfg.Prefetch = prefetch.DefaultConfig()
			cfg.Trace = trace.New(0)
			r := New(cfg).Run(scrubWorkload(8, 6500*units.Millisecond, units.Time(70*units.Second)), 0)
			var waste []trace.Event
			for _, ev := range cfg.Trace.Events {
				if ev.Kind == trace.PrefetchWaste {
					waste = append(waste, ev)
				}
			}
			return r, waste
		}
		r, waste := run()
		if r.Prefetch.Wasted == 0 {
			t.Fatalf("%s: no warm wasted, so the check proves nothing: %v", tc.name, r.Prefetch)
		}
		if int64(len(waste)) != r.Prefetch.Wasted {
			t.Errorf("%s: %d prefetch-waste events, the tables count %d wasted warms", tc.name, len(waste), r.Prefetch.Wasted)
		}
		if _, again := run(); !slices.Equal(again, waste) {
			t.Errorf("%s: prefetch-waste events differ between two runs:\n%v\n%v", tc.name, waste, again)
		}
	}
}
