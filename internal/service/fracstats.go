package service

import (
	"sort"
	"sync"
	"time"
)

// fracTracker is the head-side busy-share account for the fractional-
// capacity layer (§5.13): the wall-clock twin of fracshare.Meter. The
// dispatcher notes every task handoff and completion; between transitions a
// node's busy share is the piecewise-constant min(in-flight, K)/K, so the
// per-node integral accumulates exactly like the simulator's meter does on
// virtual time. Every instant comes from the caller, who reads the head's
// clock. A periodic sample of the cluster-mean share feeds a fixed
// ring for quantiles, mirroring the frame-latency ring.
type fracTracker struct {
	mu         sync.Mutex
	slots      int
	inflight   []int
	busy       []time.Duration // ∫ busy-share dt per node
	last       []time.Time     // start of each node's current share span
	started    time.Time
	dispatched int64
	completed  int64

	ring shareRing
}

func newFracTracker(nodes, slots int, now time.Time) *fracTracker {
	t := &fracTracker{
		slots:    slots,
		inflight: make([]int, nodes),
		busy:     make([]time.Duration, nodes),
		last:     make([]time.Time, nodes),
		started:  now,
	}
	for k := range t.last {
		t.last[k] = now
	}
	return t
}

// share is node k's current busy fraction; callers hold mu.
func (t *fracTracker) share(k int) float64 {
	n := t.inflight[k]
	if n > t.slots {
		n = t.slots
	}
	return float64(n) / float64(t.slots)
}

// fold closes node k's open share span at now; callers hold mu.
func (t *fracTracker) fold(k int, now time.Time) {
	if now.After(t.last[k]) {
		t.busy[k] += time.Duration(float64(now.Sub(t.last[k])) * t.share(k))
		t.last[k] = now
	}
}

// noteDispatch records a task handed to node k at now.
func (t *fracTracker) noteDispatch(k int, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if k < 0 || k >= len(t.inflight) {
		return
	}
	t.fold(k, now)
	t.inflight[k]++
	t.dispatched++
}

// noteDone records a task leaving node k — a completion report, or a
// release/migration returning it to the queue. Clamped at zero: a straggler
// fragment arriving after its task was presumed lost and released decrements
// only once.
func (t *fracTracker) noteDone(k int, completed bool, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if k < 0 || k >= len(t.inflight) {
		return
	}
	t.fold(k, now)
	if t.inflight[k] > 0 {
		t.inflight[k]--
	}
	if completed {
		t.completed++
	}
}

// sample pushes the cluster-mean busy share into the quantile ring; the
// dispatcher calls it on the health-check tick.
func (t *fracTracker) sample(now time.Time) {
	t.mu.Lock()
	var sum float64
	for k := range t.inflight {
		t.fold(k, now)
		sum += t.share(k)
	}
	mean := sum / float64(len(t.inflight))
	t.mu.Unlock()
	t.ring.add(mean)
}

// snapshot builds the exported view.
func (t *fracTracker) snapshot(now time.Time) *FracShareSnapshot {
	t.mu.Lock()
	s := &FracShareSnapshot{
		Slots:           t.slots,
		TasksDispatched: t.dispatched,
		TasksCompleted:  t.completed,
		NodeBusyPct:     make([]float64, len(t.busy)),
		NodeInFlight:    append([]int(nil), t.inflight...),
	}
	up := now.Sub(t.started)
	for k := range t.busy {
		t.fold(k, now)
		if up > 0 {
			s.NodeBusyPct[k] = 100 * float64(t.busy[k]) / float64(up)
		}
		s.MeanBusyPct += s.NodeBusyPct[k]
	}
	s.MeanBusyPct /= float64(len(t.busy))
	t.mu.Unlock()
	s.BusyP50Pct, s.BusyP95Pct, s.BusyP99Pct = t.ring.quantiles()
	s.BusyP50Pct *= 100
	s.BusyP95Pct *= 100
	s.BusyP99Pct *= 100
	return s
}

// shareRing keeps the most recent busy-share samples in a fixed ring for
// cheap streaming quantiles — latRing's shape with float payloads.
type shareRing struct {
	mu   sync.Mutex
	buf  [512]float64
	next int
	n    int
}

func (r *shareRing) add(v float64) {
	r.mu.Lock()
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// quantiles returns nearest-rank p50/p95/p99 over the retained window, or
// zeros when nothing has been sampled yet.
func (r *shareRing) quantiles() (p50, p95, p99 float64) {
	r.mu.Lock()
	sorted := append([]float64(nil), r.buf[:r.n]...)
	r.mu.Unlock()
	if len(sorted) == 0 {
		return 0, 0, 0
	}
	sort.Float64s(sorted)
	rank := func(p int) float64 {
		i := (len(sorted)*p + 99) / 100
		if i < 1 {
			i = 1
		}
		return sorted[i-1]
	}
	return rank(50), rank(95), rank(99)
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
