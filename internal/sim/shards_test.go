package sim

import (
	"fmt"
	"strings"
	"testing"

	"vizsched/internal/core"
	"vizsched/internal/shard"
	"vizsched/internal/units"
	"vizsched/internal/volume"
	"vizsched/internal/workload"
)

// shardConfig builds a cluster of nodes over nDatasets small datasets, one
// chunk each, warm caches — the control plane, not the data plane, is the
// scarce resource.
func shardConfig(nodes, nDatasets int, size units.Bytes) Config {
	lib := volume.NewLibrary()
	policy := volume.Decomposition(volume.MaxChunk{Chkmax: 256 * units.MB})
	for i := 1; i <= nDatasets; i++ {
		lib.Add(volume.NewDataset(volume.DatasetID(i), "ds", size, policy))
	}
	return Config{
		Nodes:        nodes,
		MemQuota:     2 * units.GB,
		Model:        core.System1CostModel(),
		NewScheduler: func() core.Scheduler { return core.NewLocalityScheduler(0) },
		Library:      lib,
		Seed:         1,
		Preload:      true,
	}
}

// overloadWorkload issues interactive single-frame sessions at a fixed
// rate, each its own action so sessions spread across shards.
func overloadWorkload(perSecond int, seconds int, nDatasets int) *workload.Schedule {
	wl := &workload.Schedule{Length: units.Time(seconds) * units.Time(units.Second)}
	gap := units.Second / units.Duration(perSecond)
	var at units.Time
	id := core.ActionID(1)
	for at < wl.Length {
		wl.Requests = append(wl.Requests, workload.Request{
			At:      at,
			Class:   core.Interactive,
			Action:  id,
			Dataset: volume.DatasetID(1 + int(id)%nDatasets),
		})
		id++
		at = at.Add(gap)
	}
	return wl
}

// TestShardedSingleShardMatchesUnsharded: with one shard and a zero-cost
// control plane, the sharded engine is the ordinary engine — same clock,
// same streams, same outcome. This is the bit-identity anchor for the
// golden path.
func TestShardedSingleShardMatchesUnsharded(t *testing.T) {
	cfg := shardConfig(4, 4, units.GB)
	wl := workload.Generate(workload.Spec{
		Length:            units.Time(10 * units.Second),
		Datasets:          4,
		ContinuousActions: 4,
		TargetBatch:       6,
		Seed:              5,
	})

	plain := cfg
	plain.Scheduler = cfg.NewScheduler()
	base := New(plain).Run(wl, 0)

	scfg := cfg
	scfg.Shards = 1
	scfg.HeadCost = &shard.HeadCost{}
	rep := NewSharded(scfg).Run(wl, 0)

	s := rep.Shards[0]
	if s.Interactive.Completed != base.Interactive.Completed ||
		s.Batch.Completed != base.Batch.Completed ||
		s.Loads != base.Loads ||
		s.Interactive.Latency.Mean() != base.Interactive.Latency.Mean() {
		t.Fatalf("single-shard run diverged from unsharded:\n sharded  %v\n plain    %v", s, base)
	}
}

// TestShardedDeterminism: the same sharded configuration run twice yields
// identical outcomes — the shared heap's FIFO tie-break and the pure-
// function cross-shard decisions leave no room for divergence.
func TestShardedDeterminism(t *testing.T) {
	run := func() *ShardedReport {
		cfg := shardConfig(8, 6, 256*units.MB)
		cfg.Shards = 4
		cfg.Donation = true
		return NewSharded(cfg).Run(overloadWorkload(400, 5, 6), 0)
	}
	a, b := run(), run()
	if a.JobsCompleted() != b.JobsCompleted() || a.Loads() != b.Loads() ||
		a.Donated != b.Donated || a.MeanInteractiveLatency() != b.MeanInteractiveLatency() {
		t.Fatalf("sharded runs diverged:\n a %v\n b %v", a, b)
	}
	for i := range a.Shards {
		if a.Shards[i].Interactive.Completed != b.Shards[i].Interactive.Completed {
			t.Fatalf("shard %d diverged: %d vs %d jobs",
				i, a.Shards[i].Interactive.Completed, b.Shards[i].Interactive.Completed)
		}
	}
}

// TestShardedRunPanicsOnBrokenDirectory: a sharded run checks its
// invariants at the end, as a lone engine checks its head tables — a
// directory home outside the cluster ends the run in a panic.
func TestShardedRunPanicsOnBrokenDirectory(t *testing.T) {
	cfg := shardConfig(8, 6, 256*units.MB)
	cfg.Shards = 2
	se := NewSharded(cfg)
	se.Directory().SetHomes(volume.ChunkID{Dataset: 99}, []int{-1})
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "home -1 outside") {
			t.Fatalf("run ended with %v, want a panic naming the home outside the cluster", r)
		}
	}()
	se.Run(overloadWorkload(40, 5, 6), 0)
}

// TestShardedInvariants: after a shard-spanning run every cross-shard
// invariant holds — session ownership is unique and ring-consistent, and
// the directory is structurally sound.
func TestShardedInvariants(t *testing.T) {
	cfg := shardConfig(8, 6, 256*units.MB)
	cfg.Shards = 4
	cfg.Donation = true
	cfg.Replicas = 2
	se := NewSharded(cfg)
	se.Run(overloadWorkload(400, 5, 6), 0)
	if err := se.InvariantCheck(); err != nil {
		t.Fatalf("invariant violated: %v", err)
	}
	if st := se.Directory().Snapshot(); st.Publishes == 0 {
		t.Fatal("directory saw no publishes — shards are not sharing locality facts")
	}
}

// TestShardedDonation: one tenant's batch flood lands on its owning shard;
// the other shard is idle past the ε-guard and must adopt queued batch
// jobs through the donation board, raising total completions.
func TestShardedDonation(t *testing.T) {
	build := func(donation bool) (*ShardedEngine, *workload.Schedule) {
		cfg := shardConfig(4, 2, 256*units.MB)
		cfg.Shards = 2
		cfg.Donation = donation
		se := NewSharded(cfg)
		// All work from one tenant: every job is admitted by one shard.
		owner := se.Ring().Owner(7, 1)
		_ = owner
		wl := &workload.Schedule{Length: units.Time(30 * units.Second)}
		for i := 0; i < 120; i++ {
			wl.Requests = append(wl.Requests, workload.Request{
				At:      units.Time(units.Duration(i) * units.Millisecond),
				Class:   core.Batch,
				Action:  core.ActionID(1 + i),
				Tenant:  7,
				Dataset: volume.DatasetID(1 + i%2),
			})
		}
		return se, wl
	}

	seOff, wl := build(false)
	off := seOff.Run(wl, 0)
	seOn, wl2 := build(true)
	on := seOn.Run(wl2, 0)

	if on.Donated == 0 {
		t.Fatal("no jobs donated despite an idle shard and a flooded shard")
	}
	if err := seOn.InvariantCheck(); err != nil {
		t.Fatalf("invariant violated under donation: %v", err)
	}
	// Donation must not lose or duplicate work…
	if on.JobsCompleted() > on.JobsIssued() {
		t.Fatalf("completed %d of %d issued — duplicated work", on.JobsCompleted(), on.JobsIssued())
	}
	// …and with twice the executors in play, the flood drains faster.
	offLat, onLat := offMeanBatch(off), offMeanBatch(on)
	if onLat >= offLat {
		t.Fatalf("donation did not help: batch working mean %v (on) vs %v (off), donated %d",
			onLat, offLat, on.Donated)
	}
}

// offMeanBatch is the completion-weighted batch latency mean of a run.
func offMeanBatch(r *ShardedReport) units.Duration {
	var n int64
	var sum float64
	for _, s := range r.Shards {
		n += s.Batch.Latency.N
		sum += float64(s.Batch.Latency.Mean()) * float64(s.Batch.Latency.N)
	}
	if n == 0 {
		return 0
	}
	return units.Duration(sum / float64(n))
}

// TestShardedThroughputScaling is the acceptance benchmark in miniature:
// with the control plane as the bottleneck (admissions at 3.5× a single
// head's capacity), 4 shards must complete at least 3× the sessions one
// shard does.
func TestShardedThroughputScaling(t *testing.T) {
	run := func(shards int) *ShardedReport {
		cfg := shardConfig(16, 8, 64*units.MB)
		cfg.Shards = shards
		cfg.HeadCost = &shard.HeadCost{
			Admit:    2 * units.Millisecond, // 500 admissions/s per shard
			Dispatch: 50 * units.Microsecond,
			Complete: 20 * units.Microsecond,
		}
		se := NewSharded(cfg)
		rep := se.Run(overloadWorkload(1750, 8, 8), 0) // 3.5× one shard's capacity
		if err := se.InvariantCheck(); err != nil {
			t.Fatalf("invariant violated at %d shards: %v", shards, err)
		}
		return rep
	}
	one := run(1).JobsCompleted()
	four := run(4).JobsCompleted()
	if one == 0 {
		t.Fatal("baseline completed nothing")
	}
	if ratio := float64(four) / float64(one); ratio < 3 {
		t.Fatalf("4 shards completed %d vs %d at 1 shard — %.2fx, want ≥3x", four, one, ratio)
	}
}
