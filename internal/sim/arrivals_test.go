package sim

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"vizsched/internal/core"
	"vizsched/internal/des"
	"vizsched/internal/units"
	"vizsched/internal/workload"
)

// heapHighWater runs a scenario's engine under OURS over wl and returns the
// most events its queue held at any millisecond of the run, and a bound from
// the cluster's shape alone: four events per slot (a completion, a load, a
// warm, a fault timer) plus a few ticks.
func heapHighWater(cfg workload.ScenarioConfig, wl *workload.Schedule) (high, bound int) {
	e := New(ScenarioEngineConfig(cfg, core.NewLocalityScheduler(0), 0.05))
	e.sim.Every(units.Millisecond, func(s *des.Simulator) { high = max(high, s.Pending()) })
	e.Run(wl, 0)
	return high, 4*len(e.nodes)*e.slots + 16
}

// TestRunHeapHoldsNoFutureArrivals: the arrivals stream into the event
// queue, so what it holds is bounded by what the nodes can have in flight —
// a completion or a load per slot, a warm per node, a few ticks — not by how
// many requests the schedule has still to deliver.
func TestRunHeapHoldsNoFutureArrivals(t *testing.T) {
	cfg := workload.Scenario(workload.Scenario3, 0.02)
	wl := workload.Generate(cfg.Spec)
	twice := *wl
	twice.Requests = make([]workload.Request, 0, 2*len(wl.Requests))
	for _, r := range wl.Requests {
		twice.Requests = append(twice.Requests, r, r)
	}
	for _, s := range []*workload.Schedule{wl, &twice} {
		if high, bound := heapHighWater(cfg, s); high > bound {
			t.Errorf("%d requests: the event queue held up to %d events, want at most %d on %d nodes",
				len(s.Requests), high, bound, cfg.Nodes)
		} else {
			t.Logf("%d requests: event queue high-water %d (bound %d)", len(s.Requests), high, bound)
		}
	}
}

// TestRunUnsortedArrivalsTraceAsSorted: a schedule not sorted by arrival
// time plays as its stable-sorted copy does — equal times in slice order,
// the order one queued event per request gave them — and Run leaves the
// caller's slice as it was.
func TestRunUnsortedArrivalsTraceAsSorted(t *testing.T) {
	cfg := workload.Scenario(workload.Scenario1, 0.05)
	ecfg := ScenarioEngineConfig(cfg, core.NewLocalityScheduler(0), 0.05)
	wl := workload.Generate(cfg.Spec)
	// Coarsen the arrival times so many tie, then shuffle.
	for i := range wl.Requests {
		r := &wl.Requests[i]
		r.At -= r.At % units.Time(100*units.Millisecond)
	}
	rand.New(rand.NewSource(5)).Shuffle(len(wl.Requests), func(i, j int) {
		wl.Requests[i], wl.Requests[j] = wl.Requests[j], wl.Requests[i]
	})
	byAt := func(a, b workload.Request) int { return cmp.Compare(a.At, b.At) }
	if slices.IsSortedFunc(wl.Requests, byAt) {
		t.Fatal("the shuffled schedule is sorted")
	}
	shuffled := slices.Clone(wl.Requests)
	sorted := *wl
	sorted.Requests = slices.Clone(wl.Requests)
	slices.SortStableFunc(sorted.Requests, byAt)

	got, want := traceCSV(t, ecfg, wl), traceCSV(t, ecfg, &sorted)
	if !bytes.Equal(got, want) {
		t.Errorf("an unsorted schedule traced differently from its stable-sorted copy")
	}
	if !slices.Equal(wl.Requests, shuffled) {
		t.Error("Run reordered the caller's requests")
	}
}
