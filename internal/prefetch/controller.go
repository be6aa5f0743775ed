package prefetch

import (
	"vizsched/internal/core"
	"vizsched/internal/metrics"
	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// Controller glues predictor and governor into a core.PrefetchPlanner: one
// instance per engine or live head, wired into the scheduler with
// core.PrefetchSetter and trained by the completions the head tables fold
// in (core.PrefetchObserver). Not safe for concurrent use; its owner
// serializes access the same way it serializes Schedule calls.
type Controller struct {
	cfg    Config
	pred   *Predictor
	gov    *Governor
	sizeOf func(volume.ChunkID) units.Bytes

	// inflight tracks the (at most one) warm each node is running;
	// inflightChunk counts in-flight warms per chunk so two nodes never
	// warm the same chunk concurrently.
	inflight      map[core.NodeID]volume.ChunkID
	inflightChunk map[volume.ChunkID]int

	// churned tracks chunks a warm landing displaced from each node since
	// the node last completed demand work. A displaced chunk immediately
	// becomes a top-ranked non-resident candidate, so without this guard a
	// long idle window lets warm → evict → re-warm cycles rotate the entire
	// cache, wasting the whole gap's bandwidth. Demand completions clear it:
	// real work re-anchors what is worth keeping.
	churned map[core.NodeID]map[volume.ChunkID]bool

	issued    int64
	loaded    int64
	cancelled int64
	bytes     units.Bytes

	scratch []core.PrefetchDirective
}

// NewController builds the prefetching layer for n nodes. sizeOf resolves a
// candidate chunk to its byte size, returning 0 for chunks that do not
// exist (the predictor may extrapolate past a dataset edge); the engine
// backs it with the library, the live head with its manifest catalog.
// A nil cfg selects all defaults.
func NewController(cfg *Config, n int, sizeOf func(volume.ChunkID) units.Bytes) *Controller {
	c := Config{}
	if cfg != nil {
		c = *cfg
	}
	c = c.withDefaults()
	return &Controller{
		cfg:           c,
		pred:          NewPredictor(&c),
		gov:           NewGovernor(n, c.RateBytesPerSec, c.Burst),
		sizeOf:        sizeOf,
		inflight:      make(map[core.NodeID]volume.ChunkID),
		inflightChunk: make(map[volume.ChunkID]int),
		churned:       make(map[core.NodeID]map[volume.ChunkID]bool),
	}
}

// Observe trains the predictor with one completed task. It also clears the
// churn guard: demand work re-anchors the caches, so chunks a warm once
// displaced become fair candidates again.
func (c *Controller) Observe(action core.ActionID, chunk volume.ChunkID, now units.Time) {
	c.pred.Observe(action, chunk, now)
	clear(c.churned)
}

// NoteEvicted records that landing a warm displaced chunk from node k. The
// head tables call it for every eviction a landed warm reports; Plan
// refuses to re-warm such a chunk onto the same node until demand work runs
// again, breaking warm/evict rotation cycles in long idle windows.
func (c *Controller) NoteEvicted(k core.NodeID, chunk volume.ChunkID) {
	set := c.churned[k]
	if set == nil {
		set = make(map[volume.ChunkID]bool)
		c.churned[k] = set
	}
	set[chunk] = true
}

// Plan implements core.PrefetchPlanner. It runs at the end of Schedule,
// after every demand assignment has been committed to the head tables, so
// the idle test below sees the cycle's true leftover capacity: a node is a
// warming target only if its predicted queue drains inside [now, λ) and it
// has been free of interactive work for the ε-style guard Estimate[c]/2 —
// the same idleness reasoning Algorithm 1 applies to non-cached batch,
// reusing the same Estimate table. A cycle with no open node cannot issue a
// warm, so it only ages the prior, the one lasting effect of Candidates.
func (c *Controller) Plan(now, lambda units.Time, head *core.HeadState) []core.PrefetchDirective {
	out := c.scratch[:0]
	k := 0
	for k < head.Nodes() && !c.open(core.NodeID(k), lambda, head) {
		k++
	}
	if k == head.Nodes() {
		c.pred.decay(now)
		return out
	}
	for _, cand := range c.pred.Candidates(now, c.cfg.TopK) {
		size := c.sizeOf(cand.Chunk)
		if size <= 0 {
			continue // extrapolated past a dataset edge
		}
		if c.inflightChunk[cand.Chunk] > 0 {
			continue // already warming somewhere
		}
		if head.ReplicaCount(cand.Chunk) > 0 {
			continue // already predicted resident
		}
		guard := head.IdleThreshold(cand.Chunk, size, 1)
		best := core.NodeID(-1)
		for k := 0; k < head.Nodes(); k++ {
			node := core.NodeID(k)
			if !c.open(node, lambda, head) {
				continue
			}
			if c.churned[node][cand.Chunk] {
				continue // a warm displaced it here; re-warming would cycle
			}
			if head.InteractiveIdle(node, now) <= guard {
				continue // served interactive work too recently
			}
			if best < 0 || head.Available[k] < head.Available[best] {
				best = node
			}
		}
		if best < 0 {
			continue
		}
		if !c.gov.Allow(best, size, now) {
			continue
		}
		out = append(out, c.claim(best, cand.Chunk, size))
	}
	c.scratch = out
	return out
}

// open reports whether node k is alive, not warming and drained before λ.
func (c *Controller) open(k core.NodeID, lambda units.Time, head *core.HeadState) bool {
	_, busy := c.inflight[k]
	return head.Alive(k) && !busy && head.Available[k].Before(lambda)
}

// claim records a warm of chunk onto node k and returns its directive.
func (c *Controller) claim(k core.NodeID, chunk volume.ChunkID, size units.Bytes) core.PrefetchDirective {
	c.inflight[k] = chunk
	c.inflightChunk[chunk]++
	c.issued++
	c.bytes += size
	return core.PrefetchDirective{Node: k, Chunk: chunk, Size: size}
}

// Evacuate plans drain pre-warms (§5.12): directives that copy a draining
// node's would-be-orphan chunks onto survivors before the node leaves. It
// keeps Plan's safety rails — one warm per node, never a resident or
// already-warming chunk, every load priced through the same bandwidth
// governor — but skips the idle-window and churn guards: a drain is a
// deliberate, bounded evacuation, not an opportunistic fill, so it may use
// any alive node's next capacity. Chunks the governor refuses (or that find
// no eligible node) are left out; the drain loop re-offers them on its next
// tick until the working set is safe. exclude is the draining node, belt
// and braces on top of its not-Alive health state.
func (c *Controller) Evacuate(now units.Time, chunks []volume.ChunkID, head *core.HeadState, exclude core.NodeID) []core.PrefetchDirective {
	var out []core.PrefetchDirective
	for _, chunk := range chunks {
		size := c.sizeOf(chunk)
		if size <= 0 {
			continue
		}
		if c.inflightChunk[chunk] > 0 {
			continue // already warming somewhere
		}
		if head.ReplicaCount(chunk) > 0 {
			continue // a survivor already holds it
		}
		best := core.NodeID(-1)
		for k := 0; k < head.Nodes(); k++ {
			node := core.NodeID(k)
			if node == exclude || !head.Alive(node) {
				continue
			}
			if _, busy := c.inflight[node]; busy {
				continue
			}
			if best < 0 || head.Available[k] < head.Available[best] {
				best = node
			}
		}
		if best < 0 {
			continue
		}
		if !c.gov.Allow(best, size, now) {
			continue
		}
		out = append(out, c.claim(best, chunk, size))
	}
	return out
}

// Warmup plans one bring-up pre-warm (§5.12): a directive copying the
// predictor's hottest candidate onto a newly (re)activated node, so the node
// joins the fleet warm instead of paying demand misses on the interactive
// path. The selection inverts Plan's replica test — a resident replica
// elsewhere is exactly what makes a chunk worth copying, since bring-up adds
// a replica of the hot working set — so only residency on the target node
// itself disqualifies a candidate. Everything else keeps the usual rails:
// one warm per node, never a chunk already warming somewhere, the churn
// guard against warm/evict rotation, and the same bandwidth governor pricing
// every load. Callers re-offer on each control tick for the configured
// warm-up window; a false return means the node is busy warming, out of
// governed bandwidth, or already holds everything worth holding.
func (c *Controller) Warmup(now units.Time, k core.NodeID, head *core.HeadState) (core.PrefetchDirective, bool) {
	if !head.Alive(k) {
		return core.PrefetchDirective{}, false
	}
	if _, busy := c.inflight[k]; busy {
		return core.PrefetchDirective{}, false
	}
	for _, cand := range c.pred.Candidates(now, c.cfg.TopK) {
		size := c.sizeOf(cand.Chunk)
		if size <= 0 {
			continue // extrapolated past a dataset edge
		}
		if c.inflightChunk[cand.Chunk] > 0 {
			continue // already warming somewhere
		}
		if head.Caches[k].Contains(cand.Chunk) {
			continue // the new node already holds it
		}
		if c.churned[k][cand.Chunk] {
			continue // a warm displaced it here; re-warming would cycle
		}
		if !c.gov.Allow(k, size, now) {
			return core.PrefetchDirective{}, false // out of budget this tick
		}
		return c.claim(k, cand.Chunk, size), true
	}
	return core.PrefetchDirective{}, false
}

// settle clears node k's in-flight record if it matches the chunk.
func (c *Controller) settle(k core.NodeID, chunk volume.ChunkID) bool {
	cur, ok := c.inflight[k]
	if !ok || cur != chunk {
		return false
	}
	delete(c.inflight, k)
	if n := c.inflightChunk[chunk]; n <= 1 {
		delete(c.inflightChunk, chunk)
	} else {
		c.inflightChunk[chunk] = n - 1
	}
	return true
}

// Loaded records a warm that completed and entered node k's cache.
func (c *Controller) Loaded(k core.NodeID, chunk volume.ChunkID) {
	if c.settle(k, chunk) {
		c.loaded++
	}
}

// Cancel records a warm abandoned before completion: the node was busy,
// failed, the chunk turned out resident, or a demand task for it absorbed
// the load in flight (a hidden hit to the head tables, but the warm itself
// never finished).
func (c *Controller) Cancel(k core.NodeID, chunk volume.ChunkID) {
	if c.settle(k, chunk) {
		c.cancelled++
	}
}

// FailNode abandons whatever warm node k had in flight (crash/stall).
func (c *Controller) FailNode(k core.NodeID) {
	if chunk, ok := c.inflight[k]; ok {
		c.Cancel(k, chunk)
	}
	delete(c.churned, k)
}

// InFlight reports the warm node k is currently running, if any.
func (c *Controller) InFlight(k core.NodeID) (volume.ChunkID, bool) {
	chunk, ok := c.inflight[k]
	return chunk, ok
}

// Outcome summarizes the run, folding in the head tables' accuracy
// counters.
func (c *Controller) Outcome(head *core.HeadState) *metrics.PrefetchOutcome {
	hits, hidden, wasted := head.PrefetchAccuracy()
	return &metrics.PrefetchOutcome{
		Issued:     c.issued,
		Loaded:     c.loaded,
		Cancelled:  c.cancelled,
		Hits:       hits,
		HiddenHits: hidden,
		Wasted:     wasted,
		BytesMoved: c.bytes,
	}
}
