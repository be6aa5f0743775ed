package service

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vizsched/internal/core"
	"vizsched/internal/units"
)

func TestStatsCountersAndHandler(t *testing.T) {
	cat := testCatalog(t, 2)
	cl, err := StartCluster(core.NewLocalityScheduler(5*units.Millisecond), cat, 2, 64*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	client := cl.Connect()
	defer client.Close()

	for i := 0; i < 3; i++ {
		if _, err := client.Render(RenderBody{
			Dataset: "plume", Angle: float64(i), Dist: 2.4,
			Width: 16, Height: 16, Batch: i == 2,
		}); err != nil {
			t.Fatal(err)
		}
	}
	s := cl.Head.Stats()
	if s.JobsIssued != 3 || s.JobsCompleted != 3 {
		t.Errorf("issued/completed = %d/%d, want 3/3", s.JobsIssued, s.JobsCompleted)
	}
	if s.BatchIssued != 1 || s.BatchCompleted != 1 {
		t.Errorf("batch = %d/%d, want 1/1", s.BatchIssued, s.BatchCompleted)
	}
	// 2 chunks per job × 3 jobs = 6 accesses; first job loads both.
	if s.ChunkHits+s.ChunkMisses != 6 {
		t.Errorf("accesses = %d, want 6", s.ChunkHits+s.ChunkMisses)
	}
	if s.ChunkMisses != 2 {
		t.Errorf("misses = %d, want 2", s.ChunkMisses)
	}
	if s.HitRatePct < 60 || s.MeanTaskMillis <= 0 || s.Workers != 2 {
		t.Errorf("derived stats wrong: %+v", s)
	}
	// Each worker rendered its brick three times, each render skipping what
	// the plume preset cannot see: the brick came from its file with its
	// skip section.
	for i := 0; i < 2; i++ {
		samples, skipped := cl.Worker(i).RayStats()
		if samples <= 0 || skipped <= 0 || skipped >= samples {
			t.Errorf("worker %d: ray stats %d skipped of %d samples, want some but not all", i, skipped, samples)
		}
	}

	// Three 16×16 jobs of two tasks; a brick covers part of the screen.
	if s.FramePixels != 3*2*16*16 || s.FragmentPixels <= 0 || s.FragmentPixels >= s.FramePixels {
		t.Errorf("fragments carried %d of %d frame pixels, want some of %d", s.FragmentPixels, s.FramePixels, 3*2*16*16)
	}

	// Frame-latency quantiles come from every head, whatever its settings.
	if s.FrameP50Millis <= 0 || s.FrameP50Millis > s.FrameP95Millis || s.FrameP95Millis > s.FrameP99Millis {
		t.Errorf("frame latency p50/p95/p99 = %v/%v/%v ms, want positive and ordered", s.FrameP50Millis, s.FrameP95Millis, s.FrameP99Millis)
	}

	// JSON endpoint.
	rec := httptest.NewRecorder()
	cl.Head.StatsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	var decoded StatsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if decoded.JobsCompleted != 3 {
		t.Errorf("JSON completed = %d", decoded.JobsCompleted)
	}

	// Any other path is not a stats page.
	rec = httptest.NewRecorder()
	cl.Head.StatsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metricz", nil))
	if rec.Code != 404 {
		t.Errorf("GET /metricz: status %d, want 404", rec.Code)
	}

	// Prometheus endpoint.
	rec = httptest.NewRecorder()
	cl.Head.StatsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"vizsched_jobs_issued_total 3",
		"vizsched_chunk_misses_total 2",
		"vizsched_workers 2",
		"vizsched_frame_pixels_total 1536",
		fmt.Sprintf("vizsched_fragment_pixels_total %d", s.FragmentPixels),
		`vizsched_frame_latency_seconds{quantile="0.5"} `,
		`vizsched_frame_latency_seconds{quantile="0.95"} `,
		`vizsched_frame_latency_seconds{quantile="0.99"} `,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
}

func TestStatsCountsFailures(t *testing.T) {
	cat := testCatalog(t, 2)
	cl, err := StartCluster(core.NewLocalityScheduler(5*units.Millisecond), cat, 1, 64*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	client := cl.Connect()
	defer client.Close()
	if _, err := client.Render(RenderBody{Dataset: "nope", Width: 8, Height: 8, Dist: 2}); err == nil {
		t.Fatal("want error")
	}
	// Unknown-dataset requests are rejected before issue, so failed jobs
	// stay zero — verify nothing leaked into the counters.
	s := cl.Head.Stats()
	if s.JobsIssued != 0 || s.JobsFailed != 0 {
		t.Errorf("rejected request leaked into stats: %+v", s)
	}
}

// The frames a busy node makes wait are the ones DropStale thins: the first
// frame finds the head idle and takes the only node at once; the two behind
// it queue until the half-second tick, and the newer supersedes the older.
func TestDropStaleSupersedesQueuedFrames(t *testing.T) {
	cl, err := StartClusterWith(watched(500*units.Millisecond, true), testCatalog(t, 2), 1, 64*units.MB,
		func(h *Head) { h.DropStale = true })
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	client := cl.Connect()
	defer client.Close()

	var outs [3]<-chan Outcome
	for f := range outs {
		outs[f], err = client.RenderAsync(RenderBody{
			Dataset: "plume", Angle: 0.5 * float64(f), Dist: 2.4, Width: 16, Height: 16, Action: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if o := within(t, outs[0], 10*time.Second, "dispatched frame"); o.Err != nil {
		t.Errorf("frame dispatched to the idle node failed: %v", o.Err)
	}
	if o := within(t, outs[1], 10*time.Second, "stale frame"); o.Err == nil {
		t.Error("stale frame was not superseded")
	}
	if o := within(t, outs[2], 10*time.Second, "fresh frame"); o.Err != nil {
		t.Errorf("fresh frame failed: %v", o.Err)
	}
	if got := cl.Head.Stats().JobsShed; got != 1 {
		t.Errorf("JobsShed = %d, want 1: the superseded frame", got)
	}
}

// A burst far larger than any channel buffer: before the unbounded
// per-worker sender existed, the dispatcher deadlocked against the
// fragment path at ~64 outstanding tasks.
func TestLargeBurstDoesNotDeadlock(t *testing.T) {
	cat := testCatalog(t, 2)
	cl, err := StartCluster(core.NewLocalityScheduler(2*units.Millisecond), cat, 1, 64*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	client := cl.Connect()
	defer client.Close()

	const frames = 300
	chans := make([]<-chan Outcome, 0, frames)
	for f := 0; f < frames; f++ {
		ch, err := client.RenderAsync(RenderBody{
			Dataset: "plume", Angle: float64(f) * 0.01, Dist: 2.4,
			Width: 8, Height: 8, Batch: true, Action: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	done := make(chan struct{})
	go func() {
		for _, ch := range chans {
			if o := <-ch; o.Err != nil {
				t.Error(o.Err)
			}
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("burst deadlocked")
	}
}
