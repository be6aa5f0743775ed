package sim

import (
	"bytes"
	"fmt"
	"testing"

	"vizsched/internal/autoscale"
	"vizsched/internal/baselines"
	"vizsched/internal/core"
	"vizsched/internal/fracshare"
	"vizsched/internal/metrics"
	"vizsched/internal/prefetch"
	"vizsched/internal/qos"
	"vizsched/internal/trace"
	"vizsched/internal/units"
	"vizsched/internal/volume"
	"vizsched/internal/workload"
)

// csvBytes renders a trace — a run's full event order — as CSV.
func csvBytes(t *testing.T, log *trace.Log) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := log.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// traceCSV runs one configuration over a workload and returns its trace.
func traceCSV(t *testing.T, cfg Config, wl *workload.Schedule) []byte {
	t.Helper()
	cfg.Trace = trace.New(0)
	New(cfg).Run(wl, 0)
	return csvBytes(t, cfg.Trace)
}

// TestCrashRequeueOrderIsDeterministic: a node running two tasks crashes,
// and the order its tasks re-enter the head queue decides the order they are
// re-assigned after the repair. That order must be the tasks' start order on
// every run, under dual-GPU nodes and under fractional slots alike.
func TestCrashRequeueOrderIsDeterministic(t *testing.T) {
	wl := batchPair(units.Time(30 * units.Second))
	wl.Requests = append(wl.Requests, workload.Request{
		At: units.Time(3 * units.Second), Class: core.Batch, Action: 3, Dataset: 1,
	})
	crash := []Failure{{At: units.Time(units.Second), Node: 0, RepairAt: units.Time(2 * units.Second)}}

	dual := oneNodeConfig(baselines.FCFS{}, nil, false)
	dual.GPUsPerNode = 2
	slots := oneNodeConfig(baselines.FCFS{}, &fracshare.Config{Slots: 2}, false)
	for name, cfg := range map[string]Config{"dual-gpu": dual, "fracshare-k2": slots} {
		cfg.Failures = crash
		first := traceCSV(t, cfg, wl)
		if n := bytes.Count(first, []byte("assign")); n != 5 {
			t.Fatalf("%s: %d assignments traced, want 2 before the crash and 3 after:\n%s", name, n, first)
		}
		for i := 1; i < 50; i++ {
			if again := traceCSV(t, cfg, wl); !bytes.Equal(again, first) {
				t.Fatalf("%s: run %d of the same seed traced differently:\n%s\nfirst run:\n%s", name, i, again, first)
			}
		}
	}
}

// extensions are the optional layers of the simulator, each switched on over
// pairConfig. TestExtensionPairsCompose runs every pair of them.
var extensions = []struct {
	name string
	on   func(*Config)
}{
	{"overlap-io", func(c *Config) { c.OverlapIO = true }},
	{"dual-gpu", func(c *Config) { c.GPUsPerNode = 2 }},
	{"gpu-cache", func(c *Config) { c.GPUCache = 512 * units.MB }},
	{"fracshare", func(c *Config) { c.FracShare = &fracshare.Config{} }},
	{"prefetch", func(c *Config) { c.Prefetch = prefetch.DefaultConfig() }},
	{"autoscale", func(c *Config) {
		c.Autoscale = &autoscale.Config{
			Interval: 250 * units.Millisecond, MinNodes: 2,
			HoldDown: 4, Cooldown: 2 * units.Second,
		}
	}},
	{"replicas", func(c *Config) { c.Replicas = 2 }},
	{"qos", func(c *Config) {
		c.QoS = qos.DefaultConfig()
		c.QoS.AlwaysShedStale, c.QoS.ActionDepth = true, 30
	}},
	{"faults", func(c *Config) {
		c.Failures = []Failure{
			{Kind: FaultSlowDisk, Node: 0, At: units.Time(units.Second), RepairAt: units.Time(6 * units.Second)},
			{Kind: FaultCrash, Node: 1, At: units.Time(2 * units.Second), RepairAt: units.Time(4 * units.Second)},
			{Kind: FaultStall, Node: 2, At: units.Time(3 * units.Second), RepairAt: units.Time(5 * units.Second)},
		}
	}},
	{"shards", func(c *Config) { c.Shards = 2 }},
}

// pairConfig is a cold 4-node cluster whose memory just holds its six
// two-chunk datasets — no node more than three chunks, no shard more than
// half the data — so a short run loads, evicts and queues.
func pairConfig() Config {
	lib := volume.NewLibrary()
	for i := 1; i <= 6; i++ {
		lib.Add(volume.NewDataset(volume.DatasetID(i), "ds", 512*units.MB, volume.MaxChunk{Chkmax: 256 * units.MB}))
	}
	newSched := func() core.Scheduler { return core.NewLocalityScheduler(0) }
	return Config{
		Nodes:        4,
		MemQuota:     768 * units.MB,
		Model:        core.System1CostModel(),
		Scheduler:    newSched(),
		NewScheduler: newSched,
		Library:      lib,
		Jitter:       0.05,
		Seed:         9,
	}
}

// runPair plays the pair test's mixed workload — two interactive sessions
// and a handful of batch frames from four tenants for six seconds, then quiet
// until everything has drained — and returns the trace CSV, the per-head
// reports and the structural check of the head state the run ended in. Every
// head's scheduler holds the jobs it is shown to their records.
func runPair(t *testing.T, cfg Config) ([]byte, []*metrics.Report, error) {
	t.Helper()
	cfg.Scheduler = watchRecords(t, cfg.Scheduler)
	newSched := cfg.NewScheduler
	cfg.NewScheduler = func() core.Scheduler { return watchRecords(t, newSched()) }
	wl := workload.Generate(workload.Spec{
		Length: units.Time(6 * units.Second), Datasets: 6,
		TargetInteractive: 400, ShortActionMin: units.Second, ShortActionMax: 2 * units.Second,
		TargetBatch: 12, BatchUniform: true,
		Tenants: 4, Seed: 5,
	})
	horizon := units.Time(600 * units.Second)
	cfg.Trace = trace.New(0)
	var reports []*metrics.Report
	var valid error
	if cfg.Shards > 1 {
		se := NewSharded(cfg)
		reports, valid = se.Run(wl, horizon).Shards, se.InvariantCheck()
	} else {
		e := New(cfg)
		reports, valid = []*metrics.Report{e.Run(wl, horizon)}, e.head.Validate()
	}
	return csvBytes(t, cfg.Trace), reports, valid
}

// TestExtensionPairsCompose: the simulator's extensions are settings of one
// engine, so any two of them run together — no construction panic, the head
// tables (and the shard directory) structurally sound at the end, every
// issued job completed, refused or shed, and the same seed tracing the same
// bytes twice. The one pair still refused is sharded autoscaling.
func TestExtensionPairsCompose(t *testing.T) {
	for i, a := range extensions {
		for _, b := range extensions[i+1:] {
			t.Run(a.name+"+"+b.name, func(t *testing.T) {
				build := func() Config {
					cfg := pairConfig()
					a.on(&cfg)
					b.on(&cfg)
					return cfg
				}
				if cfg := build(); cfg.Shards > 1 && cfg.Autoscale != nil {
					defer func() {
						if recover() == nil {
							t.Error("sharded autoscale did not panic; drop this exception")
						}
					}()
					NewSharded(cfg)
					return
				}
				csv, reports, valid := runPair(t, build())
				if valid != nil {
					t.Error(valid)
				}
				var issued, settled int64
				for _, r := range reports {
					issued += r.Interactive.Issued + r.Batch.Issued
					settled += r.Interactive.Completed + r.Batch.Completed
					if r.QoS != nil {
						settled += r.QoS.Rejected + r.QoS.Shed
					}
				}
				if issued == 0 || issued != settled {
					t.Errorf("%d jobs issued, %d completed, refused or shed", issued, settled)
				}
				if again, _, _ := runPair(t, build()); !bytes.Equal(again, csv) {
					t.Errorf("two runs of one seed traced differently (%d and %d bytes)%s",
						len(csv), len(again), firstDifference(csv, again))
				}
			})
		}
	}
}

// firstDifference renders the first line two traces disagree on.
func firstDifference(a, b []byte) string {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(la) && i < len(lb); i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return fmt.Sprintf("; line %d: %q then %q", i+1, la[i], lb[i])
		}
	}
	return ""
}
