package service

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vizsched/internal/core"
	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// TestMultiHeadRoutingAndDirectory drives a two-shard plane end to end:
// sessions land on the shard the ring names, every shard does real work,
// workers learn their shard from the hello ack, and completions feed the
// shared chunk directory.
func TestMultiHeadRoutingAndDirectory(t *testing.T) {
	cat := testCatalog(t, 3)
	mc, err := StartMultiCluster(2, func() core.Scheduler {
		return core.NewLocalityScheduler(2 * units.Millisecond)
	}, cat, 4, 64*units.MB, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Stop()

	// Round-robin placement: worker i serves shard i%2, and the hello ack
	// told it so. The ack is consumed on the worker's serve goroutine, so
	// poll briefly.
	for i := 0; i < 4; i++ {
		if got := ackedShard(mc.Worker(i)); got != i%2 {
			t.Fatalf("worker %d on shard %d, want %d", i, got, i%2)
		}
	}

	// Find actions owned by each shard so the burst provably spans both.
	ring := mc.MH.Ring()
	byShard := map[int]core.ActionID{}
	for a := core.ActionID(1); len(byShard) < 2 && a < 64; a++ {
		s := ring.Owner(0, a)
		if _, ok := byShard[s]; !ok {
			byShard[s] = a
		}
	}
	if len(byShard) < 2 {
		t.Fatal("ring never mapped an action to shard 1")
	}

	client := mc.Connect()
	defer client.Close()
	before := [2]int64{mc.MH.Shard(0).Stats().JobsIssued, mc.MH.Shard(1).Stats().JobsIssued}
	for s, action := range byShard {
		ds := "supernova"
		if s == 1 {
			ds = "plume"
		}
		if _, err := client.Render(RenderBody{
			Dataset: ds, Angle: 0.3, Dist: 2.4, Width: 16, Height: 16,
			Action: int(action),
		}); err != nil {
			t.Fatalf("render on shard %d: %v", s, err)
		}
		if got := mc.MH.Shard(s).Stats().JobsIssued; got != before[s]+1 {
			t.Fatalf("shard %d issued %d jobs, want %d — request routed off-owner", s, got, before[s]+1)
		}
	}

	// Both shards completed fragments, so the shared directory has heard
	// estimate and residency facts from both sides.
	st := mc.MH.Directory().Snapshot()
	if st.Publishes == 0 {
		t.Fatal("directory saw no publishes — shards are not sharing locality facts")
	}
	if err := mc.MH.Directory().Validate(4); err != nil {
		t.Fatalf("directory invariant violated: %v", err)
	}
}

// TestMultiHeadSharedEstimates: a chunk rendered only by shard 0 must have a
// directory estimate visible to shard 1's tables via the estimate source —
// and that estimate is the miss time, so rendering the same view again, all
// hits, leaves it where the cold render put it.
func TestMultiHeadSharedEstimates(t *testing.T) {
	cat := testCatalog(t, 2)
	mc, err := StartMultiCluster(2, func() core.Scheduler {
		return core.NewLocalityScheduler(2 * units.Millisecond)
	}, cat, 2, 64*units.MB, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Stop()

	ring := mc.MH.Ring()
	var action core.ActionID
	for a := core.ActionID(1); a < 64; a++ {
		if ring.Owner(0, a) == 0 {
			action = a
			break
		}
	}
	client := mc.Connect()
	defer client.Close()
	view := RenderBody{
		Dataset: "supernova", Angle: 0.1, Dist: 2.4, Width: 16, Height: 16,
		Action: int(action),
	}
	if _, err := client.Render(view); err != nil {
		t.Fatal(err)
	}

	dir := mc.MH.Directory()
	id := mc.MH.Shard(0).dsIDs["supernova"]
	var cold [2]units.Duration
	found := false
	for idx := range cold {
		if d, ok := dir.Estimate(volume.ChunkID{Dataset: id, Index: idx}); ok && d > 0 {
			cold[idx], found = d, true
		}
	}
	if !found {
		t.Fatal("no supernova chunk estimate reached the shared directory")
	}

	res, err := client.Render(view)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits != 2 {
		t.Fatalf("warm render: %d hits, want 2", res.Hits)
	}
	for idx, want := range cold {
		if got, _ := dir.Estimate(volume.ChunkID{Dataset: id, Index: idx}); got != want {
			t.Errorf("chunk %d: directory estimate %v after a warm render, want the miss time %v", idx, got, want)
		}
	}
}

// ackedShard returns the shard w's hello ack named. The ack is consumed on
// the worker's serve goroutine, so it polls briefly.
func ackedShard(w *Worker) int {
	deadline := time.Now().Add(2 * time.Second)
	for w.Shard() == -1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return w.Shard()
}

// TestClusterOneShardIsALoneHead: StartCluster's plane is one shard that
// builds no directory, its Head is that shard, and every worker's ack names
// shard 0.
func TestClusterOneShardIsALoneHead(t *testing.T) {
	cl, err := StartCluster(core.NewLocalityScheduler(2*units.Millisecond), testCatalog(t, 2), 2, 64*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	if cl.MH.Directory() != nil {
		t.Error("a one-shard cluster built a chunk directory")
	}
	if cl.Head != cl.MH.Shard(0) {
		t.Error("the cluster's Head is not its shard 0")
	}
	for i := 0; i < 2; i++ {
		if got := ackedShard(cl.Worker(i)); got != 0 {
			t.Errorf("worker %d on shard %d, want 0", i, got)
		}
	}
}

// TestClusterResyncToRefusesShards: a sharded cluster has no standby to
// re-home onto, so ResyncTo refuses it and leaves the plane serving.
func TestClusterResyncToRefusesShards(t *testing.T) {
	cat := testCatalog(t, 2)
	sched := func() core.Scheduler { return core.NewLocalityScheduler(2 * units.Millisecond) }
	cl, err := StartMultiCluster(2, sched, cat, 2, 64*units.MB, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	if err := cl.ResyncTo(NewHead(sched(), cat, 64*units.MB, core.DefaultCostModel())); err == nil {
		t.Fatal("ResyncTo re-homed a two-shard cluster")
	}
	client := cl.Connect()
	defer client.Close()
	if _, err := client.Render(RenderBody{Dataset: "plume", Dist: 2.4, Width: 16, Height: 16}); err != nil {
		t.Fatalf("render after a refused ResyncTo: %v", err)
	}
}

// TestMultiHeadNeedsWorkerPerShard: a plane with fewer workers than shards
// refuses to start instead of leaving empty dispatchers.
func TestMultiHeadNeedsWorkerPerShard(t *testing.T) {
	cat := testCatalog(t, 2)
	if _, err := StartMultiCluster(3, func() core.Scheduler {
		return core.NewLocalityScheduler(2 * units.Millisecond)
	}, cat, 2, 64*units.MB, nil); err == nil {
		t.Fatal("3 shards started with 2 workers")
	}
}

// TestShardedStatsPage renders one frame on each shard of a two-shard plane
// and reads both shards off the plane's one pair of stats pages.
func TestShardedStatsPage(t *testing.T) {
	cat := testCatalog(t, 2)
	mc, err := StartMultiCluster(2, func() core.Scheduler {
		return core.NewLocalityScheduler(2 * units.Millisecond)
	}, cat, 2, 64*units.MB, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Stop()
	client := mc.Connect()
	defer client.Close()
	for s := 0; s < 2; s++ {
		a := core.ActionID(1)
		for mc.MH.Ring().Owner(0, a) != s {
			a++
		}
		if _, err := client.Render(RenderBody{Dataset: "plume", Dist: 2.4, Width: 16, Height: 16, Action: int(a)}); err != nil {
			t.Fatalf("render on shard %d: %v", s, err)
		}
	}

	rec := httptest.NewRecorder()
	mc.MH.StatsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, want := range []string{
		"vizsched_jobs_issued_total{shard=\"0\"} 1\nvizsched_jobs_issued_total{shard=\"1\"} 1\n",
		`vizsched_frame_latency_seconds{shard="1",quantile="0.5"} `,
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("/metrics is missing %q:\n%s", want, rec.Body.String())
		}
	}

	rec = httptest.NewRecorder()
	mc.MH.StatsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	var snaps []StatsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snaps); err != nil {
		t.Fatalf("JSON page: %v", err)
	}
	if len(snaps) != 2 || snaps[0].JobsCompleted != 1 || snaps[1].JobsCompleted != 1 {
		t.Errorf("JSON page: %d snapshots, want two with one completed job each: %+v", len(snaps), snaps)
	}
}
