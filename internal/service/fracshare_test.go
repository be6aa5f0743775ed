package service

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"vizsched/internal/core"
	"vizsched/internal/fracshare"
	"vizsched/internal/units"
)

// TestFracShareLiveSlots runs the live cluster with fractional slots: the
// hello ack must carry K to the workers, concurrent renders must all
// complete correctly, and the head's busy-share account must show up in
// both the stats snapshot and the fracshare_* metrics family.
func TestFracShareLiveSlots(t *testing.T) {
	cat := testCatalog(t, 3)
	cl, err := StartClusterWith(core.NewLocalityScheduler(5*units.Millisecond), cat, 2, 64*units.MB,
		func(h *Head) { h.FracShare = &fracshare.Config{Slots: 3} })
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for u := 0; u < 4; u++ {
		u := u
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := cl.Connect()
			defer client.Close()
			name := []string{"supernova", "plume"}[u%2]
			for f := 0; f < 2; f++ {
				if _, err := client.Render(RenderBody{
					Dataset: name,
					Angle:   float64(u) * 0.4, Dist: 2.4,
					Width: 20, Height: 20,
					Action: u + 1,
				}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	for i := 0; i < 2; i++ {
		if got := cl.Worker(i).Slots(); got != 3 {
			t.Errorf("worker %d slots = %d, want 3 from the hello ack", i, got)
		}
	}

	s := cl.Head.Stats()
	fs := s.FracShare
	if fs == nil {
		t.Fatal("StatsSnapshot.FracShare nil with the layer on")
	}
	if fs.Slots != 3 {
		t.Errorf("snapshot slots = %d, want 3", fs.Slots)
	}
	if fs.TasksDispatched < 8*3 {
		t.Errorf("tasks dispatched = %d, want >= %d (8 jobs x 3 chunks)", fs.TasksDispatched, 8*3)
	}
	if fs.TasksCompleted != fs.TasksDispatched {
		t.Errorf("tasks completed = %d, dispatched = %d: account did not settle", fs.TasksCompleted, fs.TasksDispatched)
	}
	if len(fs.NodeBusyPct) != 2 || len(fs.NodeInFlight) != 2 {
		t.Fatalf("per-node gauges sized %d/%d, want 2", len(fs.NodeBusyPct), len(fs.NodeInFlight))
	}
	var busy float64
	for k := range fs.NodeBusyPct {
		if fs.NodeInFlight[k] != 0 {
			t.Errorf("node %d in-flight = %d after all jobs delivered", k, fs.NodeInFlight[k])
		}
		busy += fs.NodeBusyPct[k]
	}
	if busy <= 0 {
		t.Error("busy-share integral is zero after 8 rendered jobs")
	}

	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	cl.Head.StatsHandler().ServeHTTP(rec, req)
	body := rec.Body.String()
	for _, want := range []string{
		"vizsched_fracshare_slots 3",
		"vizsched_fracshare_tasks_dispatched_total",
		"vizsched_fracshare_node_busy_pct{node=\"0\"}",
		"vizsched_fracshare_node_in_flight{node=\"1\"}",
		"vizsched_fracshare_busy_pct{quantile=\"0.95\"}",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestFracShareOffByDefault pins the nil-config contract: no slot count in
// the hello ack, no fracshare section in the snapshot, no fracshare_* lines
// in /metrics.
func TestFracShareOffByDefault(t *testing.T) {
	cat := testCatalog(t, 2)
	cl, err := StartCluster(core.NewLocalityScheduler(5*units.Millisecond), cat, 1, 64*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	client := cl.Connect()
	defer client.Close()
	if _, err := client.Render(RenderBody{Dataset: "plume", Dist: 2.4, Width: 16, Height: 16}); err != nil {
		t.Fatal(err)
	}
	if got := cl.Worker(0).Slots(); got != 0 {
		t.Errorf("worker slots = %d with the layer off, want 0", got)
	}
	if s := cl.Head.Stats(); s.FracShare != nil {
		t.Error("StatsSnapshot.FracShare non-nil with the layer off")
	}
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	cl.Head.StatsHandler().ServeHTTP(rec, req)
	if strings.Contains(rec.Body.String(), "fracshare") {
		t.Error("/metrics exposes fracshare_* lines with the layer off")
	}
}

// TestFracTrackerAccounting drives the busy-share account directly: a node
// with 2 of K=2 slots busy integrates at full share, a release is not a
// completion, and quantiles appear once sampled.
func TestFracTrackerAccounting(t *testing.T) {
	tr := newFracTracker(2, 2)
	tr.note(0, +1, false, 0)
	tr.note(0, +1, false, 0)
	tr.note(0, +1, false, 0) // over-subscribed: share clamps at 1
	t1 := units.Time(5 * units.Millisecond)
	tr.sample()
	tr.note(0, -1, true, t1)
	tr.note(0, -1, true, t1)
	tr.note(0, -1, false, t1) // a release, not a completion
	tr.note(-1, -1, true, t1) // out of range: ignored
	s := tr.snapshot(units.Time(10 * units.Millisecond))
	if s.Slots != 2 || s.TasksDispatched != 3 || s.TasksCompleted != 2 {
		t.Errorf("snapshot = %+v", s)
	}
	if s.NodeInFlight[0] != 0 || s.NodeInFlight[1] != 0 {
		t.Errorf("in-flight = %v, want zeros", s.NodeInFlight)
	}
	if s.NodeBusyPct[0] != 50 {
		t.Errorf("node 0 busy = %v%%, want 50: full share for 5 of 10 ms", s.NodeBusyPct[0])
	}
	if s.NodeBusyPct[1] != 0 {
		t.Errorf("idle node 1 busy = %v", s.NodeBusyPct[1])
	}
	if s.BusyP95Pct <= 0 {
		t.Error("sampled quantile is zero despite a fully busy node")
	}
}
