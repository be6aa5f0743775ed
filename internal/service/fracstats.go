package service

import (
	"sync"

	"vizsched/internal/fracshare"
	"vizsched/internal/units"
)

// fracTracker is the head-side busy-share account for the fractional-
// capacity layer (§5.13). The dispatcher notes each task record as it starts
// and stops counting on its node (liveTask.counts): the account reflects the
// head's records, not the workers' lanes, so a duplicate render the head no
// longer waits for is not counted. Between transitions a node's busy share
// is the piecewise-constant min(in-flight, K)/K, which a fracshare.Meter
// integrates exactly as the simulator's does. Every instant is the head's service time (h.now()).
// A periodic sample of the cluster-mean share feeds a ring for quantiles.
type fracTracker struct {
	mu         sync.Mutex
	slots      int
	inflight   []int
	meter      *fracshare.Meter
	dispatched int64
	completed  int64

	ring ring[float64]
}

func newFracTracker(nodes, slots int) *fracTracker {
	return &fracTracker{slots: slots, inflight: make([]int, nodes), meter: fracshare.NewMeter(nodes)}
}

// share is node k's current busy fraction; callers hold mu.
func (t *fracTracker) share(k int) float64 {
	return float64(min(t.inflight[k], t.slots)) / float64(t.slots)
}

// note moves node k's in-flight count by delta at now: +1 for a record that
// starts counting on it, −1 for one that stops — its completion report
// (completed), a requeue, or its job failing.
func (t *fracTracker) note(k, delta int, completed bool, now units.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if k < 0 || k >= len(t.inflight) {
		return
	}
	if delta > 0 {
		t.dispatched++
	}
	if completed {
		t.completed++
	}
	t.inflight[k] += delta
	t.meter.Set(k, t.share(k), now)
}

// sample pushes the cluster-mean busy share into the quantile ring; the
// dispatcher calls it on the health-check tick.
func (t *fracTracker) sample() {
	t.mu.Lock()
	var sum float64
	for k := range t.inflight {
		sum += t.share(k)
	}
	mean := sum / float64(len(t.inflight))
	t.mu.Unlock()
	t.ring.add(mean)
}

// snapshot builds the exported view at now.
func (t *fracTracker) snapshot(now units.Time) *FracShareSnapshot {
	t.mu.Lock()
	s := &FracShareSnapshot{
		Slots:           t.slots,
		TasksDispatched: t.dispatched,
		TasksCompleted:  t.completed,
		NodeBusyPct:     make([]float64, len(t.inflight)),
		NodeInFlight:    append([]int(nil), t.inflight...),
	}
	t.meter.Finish(now)
	for k := range s.NodeBusyPct {
		if now > 0 {
			s.NodeBusyPct[k] = 100 * float64(t.meter.Busy(k)) / float64(now)
		}
		s.MeanBusyPct += s.NodeBusyPct[k]
	}
	s.MeanBusyPct /= float64(len(s.NodeBusyPct))
	t.mu.Unlock()
	p50, p95, p99 := t.ring.quantiles()
	s.BusyP50Pct, s.BusyP95Pct, s.BusyP99Pct = p50*100, p95*100, p99*100
	return s
}

// FracShareSnapshot is the fractional-capacity layer's slice of a stats
// snapshot (§5.13): the slot count workers run with, per-node in-flight and
// lifetime busy-share gauges, and busy-fraction quantiles over the sampled
// window.
type FracShareSnapshot struct {
	Slots           int     `json:"slots"`
	TasksDispatched int64   `json:"tasks_dispatched"`
	TasksCompleted  int64   `json:"tasks_completed"`
	MeanBusyPct     float64 `json:"mean_busy_pct"`
	// NodeBusyPct[k] is node k's lifetime mean busy share (the busy-share
	// integral over uptime); NodeInFlight[k] is its tasks currently running.
	NodeBusyPct  []float64 `json:"node_busy_pct"`
	NodeInFlight []int     `json:"node_in_flight"`
	// Busy-fraction quantiles over the recent sample ring.
	BusyP50Pct float64 `json:"busy_p50_pct"`
	BusyP95Pct float64 `json:"busy_p95_pct"`
	BusyP99Pct float64 `json:"busy_p99_pct"`
}
