package shard

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"vizsched/internal/core"
	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// stripeCount is the lock-striping width of the directory. Chunks hash
// across stripes, so shards publishing or reading different chunks almost
// never touch the same lock — the "coherent without funneling dispatch
// through a lock" requirement. Power of two for mask indexing.
const stripeCount = 64

// entry is one chunk's directory row.
type entry struct {
	// estimate is the latest observed miss execution time any shard
	// published for this chunk — the cross-shard half of Estimate[c]. Zero
	// means unobserved.
	estimate units.Duration
	// resident is the global-node set predicted to hold the chunk, the
	// union of every shard's Cache[c] view.
	resident map[int]struct{}
	// homes is the replica home set (global node IDs, primary first),
	// bounded by the directory's k.
	homes []int
}

// stripe is one lock shard of the directory.
type stripe struct {
	mu     sync.RWMutex
	chunks map[volume.ChunkID]*entry
}

// Directory is the shared chunk directory of the multi-head control plane:
// per-chunk locality facts (Estimate[c], global residency, home sets) that
// individual shards publish as they observe them and consult when their own
// tables have no entry, plus the donation board shards use to move batch
// work toward idle capacity. All methods are safe for concurrent use from
// every shard's dispatcher.
type Directory struct {
	// k bounds every home set, mirroring the replication degree; SetHomes
	// truncates beyond it so no publisher can violate the invariant.
	k int

	stripes [stripeCount]stripe

	// Donation board: capacity[s] is shard s's advertised idle executor
	// count (0 = not idle), backlog[s] its advertised queued batch jobs.
	// Plain slices under one small mutex — the board is tiny, written once
	// per shard per cycle, and never on the per-task path.
	boardMu  sync.Mutex
	capacity []int
	backlog  []int

	// Counters for operator visibility and the sweep's coherence column.
	lookups   atomic.Int64
	hits      atomic.Int64
	publishes atomic.Int64
	donations atomic.Int64
}

// NewDirectory builds a directory for n shards with home sets bounded by k
// (k < 1 is treated as the single-home degree 1).
func NewDirectory(n, k int) *Directory {
	if n <= 0 {
		panic(fmt.Sprintf("shard: non-positive shard count %d", n))
	}
	if k < 1 {
		k = 1
	}
	d := &Directory{k: k, capacity: make([]int, n), backlog: make([]int, n)}
	for i := range d.stripes {
		d.stripes[i].chunks = make(map[volume.ChunkID]*entry)
	}
	return d
}

// stripeFor picks a chunk's stripe by FNV-1a over its identity.
func (d *Directory) stripeFor(c volume.ChunkID) *stripe {
	h := fnv64a('c', uint64(int64(c.Dataset))<<32|uint64(uint32(c.Index)))
	return &d.stripes[h&(stripeCount-1)]
}

// ent returns the chunk's row, creating it when create is set. Caller holds
// the stripe lock in the matching mode.
func (s *stripe) ent(c volume.ChunkID, create bool) *entry {
	e := s.chunks[c]
	if e == nil && create {
		e = &entry{resident: make(map[int]struct{})}
		s.chunks[c] = e
	}
	return e
}

// PublishEstimate records an observed miss execution time for a chunk, so
// every shard's next Estimate[c] read sees the observation.
func (d *Directory) PublishEstimate(c volume.ChunkID, exec units.Duration) {
	if exec <= 0 {
		return
	}
	st := d.stripeFor(c)
	st.mu.Lock()
	st.ent(c, true).estimate = exec
	st.mu.Unlock()
	d.publishes.Add(1)
}

// Estimate returns the directory's Estimate[c], if any shard has published
// one. This is the fallback core.HeadState consults between its own table
// and the cost model: shard-local observations always win (they reflect
// the shard's own hardware path), the directory fills cold starts, and the
// model remains the floor.
func (d *Directory) Estimate(c volume.ChunkID) (units.Duration, bool) {
	st := d.stripeFor(c)
	st.mu.RLock()
	e := st.ent(c, false)
	var exec units.Duration
	if e != nil {
		exec = e.estimate
	}
	st.mu.RUnlock()
	d.lookups.Add(1)
	if exec > 0 {
		d.hits.Add(1)
		return exec, true
	}
	return 0, false
}

// PublishResident updates a chunk's global residency: on=true after a node
// (global ID) loads or is predicted to load it, on=false after an eviction
// or node failure drops it.
func (d *Directory) PublishResident(c volume.ChunkID, globalNode int, on bool) {
	st := d.stripeFor(c)
	st.mu.Lock()
	if on {
		st.ent(c, true).resident[globalNode] = struct{}{}
	} else if e := st.ent(c, false); e != nil {
		delete(e.resident, globalNode)
	}
	st.mu.Unlock()
	d.publishes.Add(1)
}

// Writer is one shard's write side of the directory: the
// core.DirectoryWriter a shard's head tables call, in the simulator's plane
// and the live one. The shard's node k is the plane's First + k·Stride.
type Writer struct {
	Dir           *Directory
	First, Stride int
}

func (w Writer) global(k core.NodeID) int { return w.First + int(k)*w.Stride }

// Publish is the one rule by which a shard tells the directory about a
// completion its tables have just folded in. A miss's execution time
// becomes the chunk's Estimate[c], which is the miss time (a hit's is a
// warm render's, and would price a shard's next miss far too low); the node
// holds the chunk and no longer holds what it evicted; and with k > 1 the
// shard's home set for the chunk follows.
func (w Writer) Publish(tables *core.HeadState, res core.TaskResult) {
	d, c := w.Dir, res.Task.Chunk
	if !res.Hit {
		d.PublishEstimate(c, res.Exec)
	}
	node := w.global(res.Node)
	d.PublishResident(c, node, true)
	for _, ev := range res.Evicted {
		d.PublishResident(ev, node, false)
	}
	if d.k > 1 {
		if hs := tables.HomeSet(c); len(hs) > 0 {
			homes := make([]int, len(hs))
			for j, n := range hs {
				homes[j] = w.global(n)
			}
			d.SetHomes(c, homes)
		}
	}
}

// DropNode retracts a node the shard has declared down or drained.
func (w Writer) DropNode(k core.NodeID) { w.Dir.DropNode(w.global(k)) }

// Residents returns the chunk's global residency set, sorted.
func (d *Directory) Residents(c volume.ChunkID) []int {
	st := d.stripeFor(c)
	st.mu.RLock()
	defer st.mu.RUnlock()
	e := st.ent(c, false)
	if e == nil || len(e.resident) == 0 {
		return nil
	}
	out := make([]int, 0, len(e.resident))
	for k := range e.resident {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// SetHomes publishes a chunk's replica home set (global node IDs, primary
// first). Sets longer than k are truncated — the directory enforces the
// bound rather than trusting publishers, so the ≤k invariant holds by
// construction.
func (d *Directory) SetHomes(c volume.ChunkID, homes []int) {
	if len(homes) > d.k {
		homes = homes[:d.k]
	}
	cp := append([]int(nil), homes...)
	st := d.stripeFor(c)
	st.mu.Lock()
	st.ent(c, true).homes = cp
	st.mu.Unlock()
	d.publishes.Add(1)
}

// Homes returns the chunk's published home set (primary first), or nil.
func (d *Directory) Homes(c volume.ChunkID) []int {
	st := d.stripeFor(c)
	st.mu.RLock()
	defer st.mu.RUnlock()
	e := st.ent(c, false)
	if e == nil || len(e.homes) == 0 {
		return nil
	}
	return append([]int(nil), e.homes...)
}

// DropNode removes a failed global node from every residency set and home
// set — called when a shard declares one of its workers down, so other
// shards stop treating the dead node's bricks as warm.
func (d *Directory) DropNode(globalNode int) {
	for i := range d.stripes {
		st := &d.stripes[i]
		st.mu.Lock()
		for _, e := range st.chunks {
			delete(e.resident, globalNode)
			for j, h := range e.homes {
				if h == globalNode {
					e.homes = append(e.homes[:j], e.homes[j+1:]...)
					break
				}
			}
		}
		st.mu.Unlock()
	}
}

// --- Donation board ---

// Advertise publishes shard s's donation posture for the current cycle:
// capacity is its idle executor count past the ε-guard (0 when busy),
// backlog its queued batch jobs available for adoption.
func (d *Directory) Advertise(s, capacity, backlog int) {
	d.boardMu.Lock()
	d.capacity[s] = capacity
	d.backlog[s] = backlog
	d.boardMu.Unlock()
}

// Hottest returns the shard with the largest advertised batch backlog,
// excluding the asker, with ties broken toward the lowest shard ID so every
// reader resolves the same donor deterministically. ok is false when no
// other shard has backlog.
func (d *Directory) Hottest(asker int) (s, backlog int, ok bool) {
	d.boardMu.Lock()
	defer d.boardMu.Unlock()
	best, bestN := -1, 0
	for i, b := range d.backlog {
		if i == asker || b <= bestN {
			continue
		}
		best, bestN = i, b
	}
	if best < 0 {
		return 0, 0, false
	}
	return best, bestN, true
}

// NoteDonation counts jobs moved by one donation for the stats row.
func (d *Directory) NoteDonation(jobs int) { d.donations.Add(int64(jobs)) }

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Chunks    int
	Lookups   int64
	Hits      int64
	Publishes int64
	Donations int64
}

// Snapshot returns the directory's counters and size.
func (d *Directory) Snapshot() Stats {
	n := 0
	for i := range d.stripes {
		st := &d.stripes[i]
		st.mu.RLock()
		n += len(st.chunks)
		st.mu.RUnlock()
	}
	return Stats{
		Chunks:    n,
		Lookups:   d.lookups.Load(),
		Hits:      d.hits.Load(),
		Publishes: d.publishes.Load(),
		Donations: d.donations.Load(),
	}
}

// Validate walks every row and reports the first structural violation:
// a home set longer than k, a duplicate node within a home set, or a home
// outside the residency-plausible node range [0, nodes). It is the
// invariant hook the property suite and the shardsweep both call; a nil
// error means the directory is internally consistent.
func (d *Directory) Validate(nodes int) error {
	for i := range d.stripes {
		st := &d.stripes[i]
		st.mu.RLock()
		for c, e := range st.chunks {
			if len(e.homes) > d.k {
				st.mu.RUnlock()
				return fmt.Errorf("shard: chunk %v home set %v exceeds k=%d", c, e.homes, d.k)
			}
			seen := make(map[int]struct{}, len(e.homes))
			for _, h := range e.homes {
				if h < 0 || (nodes > 0 && h >= nodes) {
					st.mu.RUnlock()
					return fmt.Errorf("shard: chunk %v home %d outside [0,%d)", c, h, nodes)
				}
				if _, dup := seen[h]; dup {
					st.mu.RUnlock()
					return fmt.Errorf("shard: chunk %v duplicate home %d", c, h)
				}
				seen[h] = struct{}{}
			}
			for k := range e.resident {
				if k < 0 || (nodes > 0 && k >= nodes) {
					st.mu.RUnlock()
					return fmt.Errorf("shard: chunk %v resident node %d outside [0,%d)", c, k, nodes)
				}
			}
		}
		st.mu.RUnlock()
	}
	return nil
}
