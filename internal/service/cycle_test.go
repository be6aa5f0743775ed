package service

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"vizsched/internal/core"
	"vizsched/internal/qos"
	"vizsched/internal/units"
)

// hour is a cycle no test outlives, and a busy period no render outlasts.
const hour = 3600 * units.Second

// watchedScheduler is OURS observed: it records the jobs every Schedule
// call was given, as bench/'s tracedScheduler records their number. With
// hold set it is also
// pessimistic — a node it assigns to is predicted busy for an hour after —
// so a test gets a node that stays busy without racing a render against the
// next submission. Embedding the concrete scheduler keeps its optional
// interfaces visible to the head.
type watchedScheduler struct {
	*core.LocalityScheduler
	hold bool

	mu    sync.Mutex
	calls [][]core.JobID
}

func watched(cycle units.Duration, hold bool) *watchedScheduler {
	return &watchedScheduler{LocalityScheduler: core.NewLocalityScheduler(cycle), hold: hold}
}

func (s *watchedScheduler) Schedule(now units.Time, queue []*core.Job, head *core.HeadState) []core.Assignment {
	out := s.LocalityScheduler.Schedule(now, queue, head)
	if s.hold {
		for _, a := range out {
			head.Available[a.Node] = now.Add(hour)
		}
	}
	ids := make([]core.JobID, len(queue))
	for i, j := range queue {
		ids[i] = j.ID
	}
	s.mu.Lock()
	s.calls = append(s.calls, ids)
	s.mu.Unlock()
	return out
}

// queues returns the jobs each Schedule call so far was given.
func (s *watchedScheduler) queues() [][]core.JobID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.calls)
}

// queueLens returns the queue length each Schedule call so far was given.
func (s *watchedScheduler) queueLens() []int {
	var lens []int
	for _, q := range s.queues() {
		lens = append(lens, len(q))
	}
	return lens
}

// within returns the outcome on ch, failing the test if none arrives in d.
func within(t *testing.T, ch <-chan Outcome, d time.Duration, what string) Outcome {
	t.Helper()
	select {
	case out := <-ch:
		return out
	case <-time.After(d):
		t.Fatalf("%s: no reply within %v", what, d)
		return Outcome{}
	}
}

// wantRefusedAtBound submits a batch job to a head whose MaxQueue is 1 and
// requires the "overloaded" refusal. The dispatcher takes one connection's
// requests in order, so the refusal also proves that everything submitted
// before it has been admitted and that one job was still queued then.
func wantRefusedAtBound(t *testing.T, client *Client) {
	t.Helper()
	ch, err := client.RenderAsync(RenderBody{Dataset: "plume", Dist: 2.4, Width: 16, Height: 16, Batch: true, Action: 9})
	if err != nil {
		t.Fatal(err)
	}
	if out := within(t, ch, 10*time.Second, "batch at the bound"); out.Err == nil || !strings.Contains(out.Err.Error(), "overloaded") {
		t.Fatalf("batch at the bound: err = %v, want an overloaded refusal — the job before it was not left queued", out.Err)
	}
}

// An interactive frame that finds the head idle is scheduled at its arrival:
// with ω an hour, the render returns. With QoS on the frame sits in the fair
// queue, and the early pass is what pops it.
func TestIdleHeadSchedulesInteractiveAtOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		qos  *qos.Config
	}{
		{"fifo", nil},
		{"qos", &qos.Config{InteractiveRate: 1000, InteractiveBurst: 1000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched := watched(hour, false)
			cl, err := StartClusterWith(sched, testCatalog(t, 2), 2, 64*units.MB, func(h *Head) { h.QoS = tc.qos })
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Stop()
			client := cl.Connect()
			defer client.Close()

			ch, err := client.RenderAsync(RenderBody{Dataset: "plume", Dist: 2.4, Width: 16, Height: 16, Tenant: 1})
			if err != nil {
				t.Fatal(err)
			}
			if out := within(t, ch, 10*time.Second, "frame on an idle head"); out.Err != nil {
				t.Fatal(out.Err)
			}
			if got := sched.queueLens(); len(got) != 1 || got[0] != 1 {
				t.Errorf("Schedule saw queues %v, want one pass over one job", got)
			}
			if s := cl.Head.Stats(); s.SchedCycles != 1 || s.EarlyCycles != 1 {
				t.Errorf("cycles = %d, early = %d, want 1 and 1", s.SchedCycles, s.EarlyCycles)
			}
		})
	}
}

// Batch work is deferred by design: a batch job arriving at an idle head
// waits for the tick.
func TestBatchArrivalWaitsForTick(t *testing.T) {
	sched := watched(hour, false)
	cl, err := StartClusterWith(sched, testCatalog(t, 2), 2, 64*units.MB, func(h *Head) { h.MaxQueue = 1 })
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	client := cl.Connect()
	defer client.Close()

	if _, err := client.RenderAsync(RenderBody{Dataset: "plume", Dist: 2.4, Width: 16, Height: 16, Batch: true}); err != nil {
		t.Fatal(err)
	}
	wantRefusedAtBound(t, client)
	if got := sched.queueLens(); len(got) != 0 {
		t.Errorf("Schedule saw queues %v, want no pass before the tick", got)
	}
	if s := cl.Head.Stats(); s.SchedCycles != 0 || s.EarlyCycles != 0 {
		t.Errorf("cycles = %d, early = %d, want none", s.SchedCycles, s.EarlyCycles)
	}
}

// Back-pressure: with the only node predicted busy, the frame behind the one
// that occupies it waits for the tick.
func TestBusyClusterWaitsForTick(t *testing.T) {
	sched := watched(hour, true)
	cl, err := StartClusterWith(sched, testCatalog(t, 2), 1, 64*units.MB, func(h *Head) { h.MaxQueue = 1 })
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	client := cl.Connect()
	defer client.Close()

	req := RenderBody{Dataset: "plume", Dist: 2.4, Width: 16, Height: 16}
	first, err := client.RenderAsync(req)
	if err != nil {
		t.Fatal(err)
	}
	req.Angle = 0.5
	second, err := client.RenderAsync(req)
	if err != nil {
		t.Fatal(err)
	}
	wantRefusedAtBound(t, client)
	if out := within(t, first, 10*time.Second, "frame on an idle head"); out.Err != nil {
		t.Fatal(out.Err)
	}
	select {
	case out := <-second:
		t.Errorf("frame behind a busy node was answered before the tick: %+v", out.Err)
	default:
	}
	if got := sched.queueLens(); len(got) != 1 || got[0] != 1 {
		t.Errorf("Schedule saw queues %v, want one pass over the first frame alone", got)
	}
	if s := cl.Head.Stats(); s.SchedCycles != 1 || s.EarlyCycles != 1 {
		t.Errorf("cycles = %d, early = %d, want 1 and 1", s.SchedCycles, s.EarlyCycles)
	}
}

// The early pass replaces the tick's pass, it does not add one: a closed
// loop of frames over an idle cluster costs one pass a frame. How many of
// them the arrival started is wall-clock dependent — a frame misses, and
// takes the tick as before, when every node's Available has not been
// corrected back yet — so only the first frame's, on a fresh head, is
// required.
func TestIdleHeadEarlyPassReplacesTick(t *testing.T) {
	sched := watched(2*units.Millisecond, false)
	cl, err := StartCluster(sched, testCatalog(t, 2), 2, 64*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	client := cl.Connect()
	defer client.Close()

	const frames = 50
	for f := 0; f < frames; f++ {
		if _, err := client.Render(RenderBody{Dataset: "plume", Angle: 0.1 * float64(f), Dist: 2.4, Width: 16, Height: 16}); err != nil {
			t.Fatal(err)
		}
	}
	lens := sched.queueLens()
	if len(lens) > frames {
		t.Errorf("%d passes for %d frames, want at most one a frame", len(lens), frames)
	}
	for i, n := range lens {
		if n != 1 {
			t.Errorf("pass %d saw %d jobs, want 1", i, n)
		}
	}
	s := cl.Head.Stats()
	if s.SchedCycles != int64(len(lens)) {
		t.Errorf("SchedCycles = %d, the scheduler counted %d", s.SchedCycles, len(lens))
	}
	if s.EarlyCycles < 1 || s.EarlyCycles > s.SchedCycles {
		t.Errorf("EarlyCycles = %d of %d passes, want the first frame's at least and no more than the passes", s.EarlyCycles, s.SchedCycles)
	}
}
