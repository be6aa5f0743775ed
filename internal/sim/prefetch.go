package sim

import (
	"vizsched/internal/core"
	"vizsched/internal/des"
	"vizsched/internal/prefetch"
	"vizsched/internal/trace"
	"vizsched/internal/volume"
)

// This file is the execution side of the predictive prefetching layer
// (§5.8): it plays the directives the scheduler's planner fitted into the
// cycle's idle windows. A warm is modeled as a background I/O stream — it
// never occupies the executor, mirroring the three-thread design of §V-C —
// and is disposable: any conflict with demand work cancels it.

// startPrefetch begins a planned warm on its target node. The plan was made
// against the head's *predicted* tables; reality may disagree (the node
// failed or stalled since, the chunk is already resident or already loading
// for demand), in which case the directive cancels rather than panics.
func (e *Engine) startPrefetch(d core.PrefetchDirective) {
	n := e.nodes[d.Node]
	cancel := n.failed || n.stalled || n.pfActive || n.mem.Contains(d.Chunk)
	if !cancel && e.cfg.OverlapIO {
		_, loading := n.waiters[d.Chunk]
		cancel = loading
	}
	if cancel {
		e.pref.Cancel(d.Node, d.Chunk)
		e.emit(trace.Event{Kind: trace.PrefetchCancel, Node: d.Node, Chunk: d.Chunk})
		return
	}
	// No jitter: warms must not consume draws from the demand jitter
	// stream, or a prefetch-on run would perturb demand execution times and
	// the off-by-default bit-identity guarantee would be unverifiable.
	dur := scaleIO(e.loadTime(n, d.Size), n.ioScale)
	n.pfActive = true
	n.pfChunk = d.Chunk
	n.pfSize = d.Size
	n.pfEnd = e.sim.Now().Add(dur)
	n.pfTimer = e.sim.After(dur, func(s *des.Simulator) { e.completePrefetch(n) })
	e.emit(trace.Event{Kind: trace.PrefetchIssue, Node: d.Node, Chunk: d.Chunk, Dur: dur})
}

// completePrefetch lands a finished warm: hand the chunk to the demand
// tasks that absorbed it mid-flight, or cold-insert it — at the cold end of
// the recency order, never evicting a chunk pinned by scheduled demand
// work.
func (e *Engine) completePrefetch(n *node) {
	n.pfTimer = des.Timer{}
	c, size := n.pfChunk, n.pfSize
	ws := n.pfWaiters
	n.pfActive = false
	n.pfWaiters = nil

	if len(ws) > 0 {
		// Overlap mode: demand absorbed the warm while it was in flight
		// ("hidden hits") — the chunk lands warm like any demand load and
		// the waiting tasks become ready.
		evicted := n.mem.Insert(c, size)
		e.report.EvictionsAdd(len(evicted))
		e.report.LoadAdd()
		e.pref.Cancel(n.id, c)
		for i, t := range ws {
			if i == 0 {
				// The first waiter carries the evictions to the head's
				// correction, like an ordinary load trigger.
				a := n.accessed[t]
				a.evicted = evicted
				n.accessed[t] = a
			}
			e.head.NotePrefetchHidden()
			e.emit(trace.Event{Kind: trace.PrefetchHit, Job: t.Job.ID, Class: t.Job.Class, Task: t.Index, Node: n.id, Chunk: c})
			n.ready.Push(t)
		}
		e.start(n)
		return
	}

	evicted, ok := n.mem.InsertCold(c, size)
	if !ok {
		// The quota is pinned solid by scheduled demand work; drop the warm.
		e.pref.Cancel(n.id, c)
		e.emit(trace.Event{Kind: trace.PrefetchCancel, Node: n.id, Chunk: c})
		return
	}
	e.report.EvictionsAdd(len(evicted))
	// No TaskResult carries what the cold insert displaced; the landing does.
	e.head.LandWarm(c, n.id, size, evicted)
}

// warmTrace is the engine's prefetch observer on its head tables: the
// controller hears every rule, and each warm the tables settle as wasted
// becomes a trace event.
type warmTrace struct {
	*prefetch.Controller
	e *Engine
}

func (w warmTrace) Wasted(k core.NodeID, c volume.ChunkID) {
	w.e.emit(trace.Event{Kind: trace.PrefetchWaste, Node: k, Chunk: c})
}
