// Package des is a small deterministic discrete-event simulation kernel.
//
// The simulator owns a virtual clock (units.Time) and a priority queue of
// events. Events scheduled for the same instant fire in the order they were
// scheduled (FIFO tie-breaking by sequence number), which makes every run of
// a seeded scenario bit-for-bit reproducible — a requirement for regenerating
// the paper's figures.
//
// The queue is a hand-rolled 4-ary heap over a slab of items recycled
// through a free list, so steady-state event dispatch performs zero heap
// allocations: scheduling reuses a slab slot, firing returns it. Canceled
// events are skipped lazily when popped, but once they outnumber the live
// events the heap is compacted in one pass, so a burst of cancellations
// cannot pin memory until its firing times are reached.
//
// A long run of known future events — a workload's arrivals — enters the
// queue as a stream (Stream): n events at non-decreasing times that hold one
// heap slot between them, so every pop sifts a heap the size of what can
// fire soon, not of every request still to come. The call reserves n
// consecutive sequence numbers and event i carries (at(i), base+i), the key
// n up-front At calls would have given it. When event i fires the slot
// re-arms in place at event i+1's key. Nothing whose key lies between the
// two can be missed: any such event pops first, exactly as it would with
// all n events queued, so the fire order is identical, not just equivalent.
package des

import (
	"fmt"

	"vizsched/internal/units"
)

// Event is a callback that fires at a virtual instant. The simulator passes
// itself so handlers can schedule follow-up events.
type Event func(sim *Simulator)

// item is a scheduled event in the kernel's slab.
type item struct {
	at  units.Time
	seq uint64
	fn  Event
	// period is positive for Every timers, which re-arm in place: the same
	// slab slot is pushed back with a fresh (time, seq), so a periodic timer
	// never allocates after creation and its handle stays valid for its
	// whole life.
	period units.Duration
	// st is set for a Stream's slot, which re-arms in place at the stream's
	// next element until the stream is exhausted.
	st *stream
	// gen distinguishes successive occupants of the slot; a Timer whose gen
	// no longer matches is stale and cancels nothing.
	gen uint32
	// canceled events stay in the heap until popped or reaped; this keeps
	// the common case (timers that do fire) free of removal costs.
	canceled bool
	// queued reports whether the item is currently in the heap (false while
	// its callback is executing).
	queued bool
}

// Timer is a cancelable handle to a scheduled event. Timers are small
// values; the zero Timer is inert and Cancel on it is a no-op.
type Timer struct {
	s    *Simulator
	slot int32
	gen  uint32
}

// Cancel prevents the event from firing. Canceling an already-fired or
// already-canceled timer is a no-op. Cancel reports whether the event was
// still pending in the queue.
func (t Timer) Cancel() bool {
	if t.s == nil || int(t.slot) >= len(t.s.items) {
		return false
	}
	it := &t.s.items[t.slot]
	if it.gen != t.gen || it.canceled {
		return false
	}
	it.canceled = true
	it.fn = nil // release the callback's captures immediately
	if !it.queued {
		// The event is firing right now (e.g. a periodic tick canceling
		// itself); the run loop will see the flag and not re-arm it.
		return false
	}
	t.s.nCanceled++
	t.s.maybeReap()
	return true
}

// arity is the heap branching factor. A 4-ary heap halves the tree depth of
// a binary heap and keeps each node's children in one cache line of the
// int32 index slice.
const arity = 4

// Simulator is the event loop. The zero value is not usable; call New.
type Simulator struct {
	now units.Time
	seq uint64

	// items is the slab of all event slots; free lists recycled slots; heap
	// holds the indices of queued items ordered by (time, sequence).
	items []item
	free  []int32
	heap  []int32
	// nCanceled counts canceled items still occupying heap slots.
	nCanceled int

	stopped bool
	// fired counts events executed, exposed for tests and runaway detection.
	fired uint64
}

// New returns a simulator with its clock at the epoch.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current virtual time.
func (s *Simulator) Now() units.Time { return s.now }

// Fired returns the number of events executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending returns the number of events still queued (including canceled
// events that have not yet been reaped).
func (s *Simulator) Pending() int { return len(s.heap) }

// alloc takes a slab slot for a new event and queues it.
func (s *Simulator) alloc(at units.Time, fn Event, period units.Duration) int32 {
	var idx int32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.items = append(s.items, item{gen: 1})
		idx = int32(len(s.items) - 1)
	}
	it := &s.items[idx]
	it.at = at
	it.seq = s.seq
	s.seq++
	it.fn = fn
	it.period = period
	it.canceled = false
	s.push(idx)
	return idx
}

// release returns a slot to the free list, invalidating outstanding handles.
func (s *Simulator) release(idx int32) {
	it := &s.items[idx]
	it.gen++
	it.fn = nil
	it.period = 0
	it.st = nil
	it.canceled = false
	it.queued = false
	s.free = append(s.free, idx)
}

// less orders queued items by (time, sequence).
func (s *Simulator) less(a, b int32) bool {
	ia, ib := &s.items[a], &s.items[b]
	if ia.at != ib.at {
		return ia.at < ib.at
	}
	return ia.seq < ib.seq
}

func (s *Simulator) push(idx int32) {
	s.items[idx].queued = true
	s.heap = append(s.heap, idx)
	// Sift up.
	h := s.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / arity
		if !s.less(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// siftDown restores heap order below position i.
func (s *Simulator) siftDown(i int) {
	h := s.heap
	n := len(h)
	for {
		first := arity*i + 1
		if first >= n {
			return
		}
		best := first
		last := first + arity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if s.less(h[c], h[best]) {
				best = c
			}
		}
		if !s.less(h[best], h[i]) {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

// popRoot removes the earliest queued item and returns its slab index.
func (s *Simulator) popRoot() int32 {
	h := s.heap
	idx := h[0]
	n := len(h) - 1
	h[0] = h[n]
	s.heap = h[:n]
	if n > 0 {
		s.siftDown(0)
	}
	s.items[idx].queued = false
	return idx
}

// maybeReap compacts the heap once canceled items outnumber live ones,
// freeing their slots in one O(n) pass instead of waiting for each firing
// time. Small heaps are left alone: the waste is bounded and the pass is
// not.
func (s *Simulator) maybeReap() {
	if len(s.heap) < 64 || s.nCanceled <= len(s.heap)/2 {
		return
	}
	live := s.heap[:0]
	for _, idx := range s.heap {
		if s.items[idx].canceled {
			s.release(idx)
		} else {
			live = append(live, idx)
		}
	}
	s.heap = live
	for i := (len(live) - 2) / arity; i >= 0; i-- {
		s.siftDown(i)
	}
	s.nCanceled = 0
}

// At schedules fn to run at the absolute virtual time at. Scheduling in the
// past panics: it always indicates a logic error in the model, and silently
// clamping would corrupt causality.
func (s *Simulator) At(at units.Time, fn Event) Timer {
	if at < s.now {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", at, s.now))
	}
	if fn == nil {
		panic("des: nil event")
	}
	idx := s.alloc(at, fn, 0)
	return Timer{s: s, slot: idx, gen: s.items[idx].gen}
}

// After schedules fn to run d after the current virtual time. Negative
// delays panic via At.
func (s *Simulator) After(d units.Duration, fn Event) Timer {
	return s.At(s.now.Add(d), fn)
}

// During schedules begin at from and end at to, returning both timers —
// the shape interval effects (degraded I/O, transient stalls) take. The
// interval must not be inverted; an empty interval (to == from) fires begin
// then end at the same instant in that order.
func (s *Simulator) During(from, to units.Time, begin, end Event) (Timer, Timer) {
	if to < from {
		panic(fmt.Sprintf("des: During interval ends %v before it begins %v", to, from))
	}
	return s.At(from, begin), s.At(to, end)
}

// Every schedules fn to run now+d, then every d thereafter, until the
// returned Timer is canceled or the simulation stops. fn observes the tick
// time via sim.Now().
func (s *Simulator) Every(d units.Duration, fn Event) Timer {
	if d <= 0 {
		panic("des: Every requires a positive period")
	}
	if fn == nil {
		panic("des: nil event")
	}
	idx := s.alloc(s.now.Add(d), fn, d)
	return Timer{s: s, slot: idx, gen: s.items[idx].gen}
}

// stream is the state of one Stream: fn(sim, i) fires at at(i), and i is
// the element the slot is queued for.
type stream struct {
	at   func(i int) units.Time
	fn   func(sim *Simulator, i int)
	i, n int
	base uint64
}

// Stream schedules n events, event i calling fn(sim, i) at at(i), with the
// fire order of n At(at(i), …) calls made here in index order — but the
// queue holds one slot for all of them and no element allocates. The times
// must not decrease: at(0) before now panics here, a later at(i+1) < at(i)
// panics when event i has fired and the stream reads the next time. Run's
// horizon and Stop act on the stream's pending elements as on queued events.
func (s *Simulator) Stream(n int, at func(i int) units.Time, fn func(sim *Simulator, i int)) {
	if at == nil || fn == nil {
		panic("des: nil stream function")
	}
	if n <= 0 {
		return
	}
	first := at(0)
	if first < s.now {
		panic(fmt.Sprintf("des: stream starts at %v before now %v", first, s.now))
	}
	st := &stream{at: at, fn: fn, n: n, base: s.seq}
	idx := s.alloc(first, func(sim *Simulator) { st.fn(sim, st.i) }, 0)
	s.items[idx].st = st
	// alloc took base; reserve the rest so event i keeps the key base+i.
	s.seq += uint64(n - 1)
}

// next advances a stream's slot to its following element's key and reports
// whether there was one to re-arm at.
func (it *item) next() bool {
	st := it.st
	if st.i+1 >= st.n {
		return false
	}
	st.i++
	at := st.at(st.i)
	if at < it.at {
		panic(fmt.Sprintf("des: stream element %d at %v precedes element %d at %v", st.i, at, st.i-1, it.at))
	}
	it.at = at
	it.seq = st.base + uint64(st.i)
	return true
}

// Stop halts the event loop after the current event returns. Remaining
// events are discarded by Run.
func (s *Simulator) Stop() { s.stopped = true }

// Run executes events in order until the queue drains, the horizon passes,
// or Stop is called. A zero horizon means "run to completion". Run returns
// the virtual time at which it stopped. A canceled event is dropped when it
// reaches the front, before the horizon is compared, so whether it was
// reaped earlier never decides where the clock stops.
func (s *Simulator) Run(horizon units.Time) units.Time {
	for len(s.heap) > 0 && !s.stopped {
		idx := s.heap[0]
		if s.items[idx].canceled {
			s.popRoot()
			s.nCanceled--
			s.release(idx)
			continue
		}
		if horizon > 0 && s.items[idx].at > horizon {
			s.now = horizon
			break
		}
		s.popRoot()
		it := &s.items[idx]
		if it.at < s.now {
			panic("des: event heap yielded time travel")
		}
		s.now = it.at
		s.fired++
		fn := it.fn
		fn(s)
		// fn may have grown the slab; re-take the pointer before touching it.
		it = &s.items[idx]
		switch {
		case it.canceled || s.stopped:
			s.release(idx)
		case it.period > 0:
			// Re-arm the periodic timer in place. The fresh sequence number
			// is taken after fn ran, so follow-up events fn scheduled at the
			// same instant keep firing before the next tick — the same order
			// the old closure-based rescheduling produced.
			it.at = s.now.Add(it.period)
			it.seq = s.seq
			s.seq++
			s.push(idx)
		case it.st != nil && it.next():
			// A stream re-arms at its next element's reserved key.
			s.push(idx)
		default:
			s.release(idx)
		}
	}
	if s.stopped {
		// Drop whatever is left so a subsequent Run does not resurrect it.
		s.heap = s.heap[:0]
		s.items = nil
		s.free = nil
		s.nCanceled = 0
	}
	return s.now
}
