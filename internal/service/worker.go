package service

import (
	"fmt"
	"log"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vizsched/internal/cache"
	"vizsched/internal/img"
	"vizsched/internal/raycast"
	"vizsched/internal/transport"
	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// Worker is one rendering node of the live service: it files assigned tasks
// into two FIFO lanes — interactive work ahead of batch work and warms, each
// lane drained in arrival order (lanes.go, DESIGN.md §5.18) — keeps loaded
// bricks in an LRU-managed memory budget, renders with the software ray
// caster, and streams fragments back to the head — the render/communication
// thread split of the paper's implementation (§V-C) maps onto its executor
// and network goroutines.
type Worker struct {
	Name    string
	catalog *Catalog
	quota   units.Bytes

	// lru tracks residency accounting; bricks holds the payloads. cacheMu
	// guards both (and datasetIDs, datasetNames, slabs): the lanes' executors
	// run concurrently and contend for the cache — the serialized load under
	// the lock is the single disk the share model prices, while renders
	// overlap freely outside it.
	cacheMu sync.Mutex
	lru     *cache.Store
	bricks  map[volume.ChunkID]*resident
	// datasetIDs gives each dataset name a stable local ID for cache keys;
	// datasetNames[id-1] is its inverse.
	datasetIDs   map[string]volume.DatasetID
	datasetNames []string
	// slabs is the free list of slabs the next loads read into (§5.16):
	// an evicted brick's voxels, bounds and leap map come here together
	// once no render holds them.
	slabs []volume.Slab

	// Heartbeat is the liveness-beacon interval; zero disables heartbeats
	// (the head then relies on connection errors and task deadlines alone).
	Heartbeat time.Duration

	// node is the slot the head assigned in its hello ack; -1 until known.
	// Atomic: the serve loop writes it while callers poll Node.
	node atomic.Int64
	// shard is the shard index from the head's hello ack (§5.11); 0 for a
	// standalone head, -1 until the ack arrives. Atomic like node.
	shard atomic.Int64
	// tasks counts executed tasks. Atomic: the executors increment it while
	// callers poll TasksExecuted.
	tasks atomic.Int64
	// raySamples and raySkipped total the ray-caster's per-fragment sample
	// counts; see RayStats.
	raySamples, raySkipped atomic.Int64

	// slots is the fractional slot count K from the head's hello ack
	// (§5.13): a session drains each lane with max(1, K) executors, so 0 and
	// 1 are the serial worker and K > 1 the fractional one.
	slots atomic.Int64

	// fg accounts for the interactive tasks in flight; background renders
	// stand aside for them (yield) and report their time net of its clock.
	fg foreground

	// retained holds recently completed results for the resync replay
	// (§5.10): a head recovered from snapshot+journal lists the tasks it
	// still considers outstanding, and the worker re-sends retained results
	// instead of re-rendering. retainMu guards it against concurrent
	// executors; Resync reads it with the executors drained. DefaultRetain
	// bounds it.
	retainMu sync.Mutex
	retained []retainedResult

	// Logf receives diagnostics; defaults to log.Printf.
	Logf func(format string, args ...any)
}

// resident is one loaded brick and who is using it.
type resident struct {
	brick *raycast.Brick
	// renders counts the executes ray-casting the brick right now; evicted
	// says the cache dropped it meanwhile, so the render that brings the
	// count to zero gives the slab back. Both under cacheMu.
	renders int
	evicted bool
}

// maxFreeSlabs bounds the free list. One slab is the steady state of a
// worker that evicts on every load (the evicted brick's slab waits for the
// next load); the second takes the slab a concurrent render was still
// holding when its brick was evicted. Past that, free slabs are memory held
// beyond the quota for no load that is coming.
const maxFreeSlabs = 2

// retainedResult is one completed task's replayable output.
type retainedResult struct {
	ref  TaskRef
	frag FragmentBody
}

// DefaultRetain is the retained-result window: how many completed results a
// worker keeps for a recovered head's resync replay.
const DefaultRetain = 64

// DefaultHeartbeat is the worker liveness-beacon interval.
const DefaultHeartbeat = 500 * time.Millisecond

// NewWorker returns a worker serving the catalog within the memory quota.
func NewWorker(name string, catalog *Catalog, quota units.Bytes) *Worker {
	if quota <= 0 {
		panic("service: worker needs a positive memory quota")
	}
	w := &Worker{
		Name:       name,
		catalog:    catalog,
		quota:      quota,
		lru:        cache.NewLRU(quota),
		bricks:     make(map[volume.ChunkID]*resident),
		datasetIDs: make(map[string]volume.DatasetID),
		Heartbeat:  DefaultHeartbeat,
		Logf:       log.Printf,
	}
	w.node.Store(-1)
	w.shard.Store(-1)
	w.fg.cond.L = &w.fg.mu
	return w
}

// Node returns the slot the head assigned this worker, or -1 before the
// hello ack arrives.
func (w *Worker) Node() int { return int(w.node.Load()) }

// Shard returns the shard index of the head this worker registered with
// (§5.11): zero for a standalone head, -1 before the hello ack arrives.
func (w *Worker) Shard() int { return int(w.shard.Load()) }

// TasksExecuted reports how many tasks this worker has completed.
func (w *Worker) TasksExecuted() int64 { return w.tasks.Load() }

// Slots reports the fractional slot count the head's hello ack assigned
// (§5.13): 0 before the ack (or with the layer off), in which case each lane
// has one executor.
func (w *Worker) Slots() int { return int(w.slots.Load()) }

// chunkID maps a wire chunk reference to a local cache key.
func (w *Worker) chunkID(dataset string, chunk int) volume.ChunkID {
	id, ok := w.datasetIDs[dataset]
	if !ok {
		w.datasetNames = append(w.datasetNames, dataset)
		id = volume.DatasetID(len(w.datasetNames))
		w.datasetIDs[dataset] = id
	}
	return volume.ChunkID{Dataset: id, Index: chunk}
}

// datasetName inverts chunkID's mapping for eviction reports.
func (w *Worker) datasetName(id volume.DatasetID) string { return w.datasetNames[id-1] }

// takeSlab removes from the free list a slab whose voxels hold the given
// number, or returns the empty Slab. A slab over twice that size stays: the
// quota counts a brick's voxels, and memory riding under a small brick
// would be hidden from it. A brick's bounds and leap map are a fixed share
// of its voxels, so they come along and, for a brick of the same shape, fit.
func (w *Worker) takeSlab(voxels int) volume.Slab {
	for i, s := range w.slabs {
		if n := cap(s.Voxels); voxels <= n && n <= 2*voxels {
			last := len(w.slabs) - 1
			w.slabs[i], w.slabs[last] = w.slabs[last], volume.Slab{}
			w.slabs = w.slabs[:last]
			return s
		}
	}
	return volume.Slab{}
}

// recycle puts a slab nobody reads any more on the free list. A full list
// keeps its larger slabs: they serve any brick the smaller ones would.
func (w *Worker) recycle(slab volume.Slab) {
	if len(w.slabs) < maxFreeSlabs {
		w.slabs = append(w.slabs, slab)
		return
	}
	small := 0
	for i := range w.slabs {
		if cap(w.slabs[i].Voxels) < cap(w.slabs[small].Voxels) {
			small = i
		}
	}
	if cap(slab.Voxels) > cap(w.slabs[small].Voxels) {
		w.slabs[small] = slab
	}
}

// fetch reads a chunk from disk into a recycled slab when one fits. The
// slab goes back to the free list when the load fails.
func (w *Worker) fetch(m *Manifest, chunk int) (*raycast.Brick, error) {
	var slab volume.Slab
	if chunk >= 0 && chunk < len(m.Chunks) {
		slab = w.takeSlab(int(m.Chunks[chunk].SizeBytes / 4))
	}
	brick, err := m.LoadBrickInto(chunk, slab)
	if err != nil && slab.Voxels != nil {
		w.recycle(slab)
	}
	return brick, err
}

// drop forgets the bricks the cache evicted and names them for the head.
// A brick no render holds gives its slab back now; one that is still being
// ray-cast by another executor does when that render lets go (release).
func (w *Worker) drop(evictedIDs []volume.ChunkID) []ChunkRef {
	var evicted []ChunkRef
	for _, ev := range evictedIDs {
		r := w.bricks[ev]
		delete(w.bricks, ev)
		if r.renders == 0 {
			w.recycle(r.brick.Slab())
		} else {
			r.evicted = true
		}
		evicted = append(evicted, ChunkRef{Dataset: w.datasetName(ev.Dataset), Index: ev.Index})
	}
	return evicted
}

// release ends one render's hold on a brick (loadBrick took it).
func (w *Worker) release(r *resident) {
	w.cacheMu.Lock()
	defer w.cacheMu.Unlock()
	r.renders--
	if r.evicted && r.renders == 0 {
		w.recycle(r.brick.Slab())
	}
}

// loadBrick returns the brick for the task, loading from disk on a miss,
// and counts the caller as rendering it until release. It reports whether
// the access hit and what was evicted.
func (w *Worker) loadBrick(dataset string, chunk int) (*resident, bool, []ChunkRef, error) {
	w.cacheMu.Lock()
	defer w.cacheMu.Unlock()
	cid := w.chunkID(dataset, chunk)
	if w.lru.Touch(cid) {
		r := w.bricks[cid]
		r.renders++
		return r, true, nil, nil
	}
	m := w.catalog.Get(dataset)
	if m == nil {
		return nil, false, nil, fmt.Errorf("service: unknown dataset %q", dataset)
	}
	brick, err := w.fetch(m, chunk)
	if err != nil {
		return nil, false, nil, err
	}
	evicted := w.drop(w.lru.Insert(cid, brick.Grid.SizeBytes()))
	r := &resident{brick: brick, renders: 1}
	w.bricks[cid] = r
	return r, false, evicted, nil
}

// prefetch warms one chunk ahead of predicted demand (§5.8). It runs in the
// background lane, behind the batch tasks filed before it and never ahead of
// an interactive one: the head's planner only issues warms into windows it
// predicts idle, so a directive racing queued demand work was mis-planned
// and is cheap to absorb; a production worker would run it on the dedicated
// I/O thread of the paper's §V-C split. The brick enters the cache at the
// cold end so a warm can never displace recently-demanded data.
func (w *Worker) prefetch(p PrefetchBody) PrefetchDoneBody {
	start := time.Now()
	done := PrefetchDoneBody{Dataset: p.Dataset, Chunk: p.Chunk}
	w.cacheMu.Lock()
	defer w.cacheMu.Unlock()
	cid := w.chunkID(p.Dataset, p.Chunk)
	if w.lru.Contains(cid) {
		done.Resident = true
		return done
	}
	m := w.catalog.Get(p.Dataset)
	if m == nil {
		w.Logf("worker %s: prefetch for unknown dataset %q", w.Name, p.Dataset)
		return done
	}
	brick, err := w.fetch(m, p.Chunk)
	if err != nil {
		w.Logf("worker %s: prefetch %s/%d failed: %v", w.Name, p.Dataset, p.Chunk, err)
		return done
	}
	evictedIDs, ok := w.lru.InsertCold(cid, brick.Grid.SizeBytes())
	if !ok {
		w.recycle(brick.Slab())
		return done // quota pinned solid; drop the warm
	}
	done.Evicted = w.drop(evictedIDs)
	w.bricks[cid] = &resident{brick: brick}
	done.Loaded = true
	done.Nanos = time.Since(start).Nanoseconds()
	return done
}

// execute runs one task and builds its fragment: the pixels inside the
// bounds of what the brick drew, and where in the frame they sit — nothing at
// all (W = H = 0, no Data) for a brick that drew nothing.
//
// A batch task renders in the background: its bands stand aside at every
// scanline (yield), and the time it reports is its own — the wall time net
// of the interactive work it stood aside for, which those tasks' fragments
// have already reported to the head.
func (w *Worker) execute(t TaskBody) (FragmentBody, error) {
	start := time.Now()
	opt := raycast.Options{
		Width:    t.Render.Width,
		Height:   t.Render.Height,
		Mode:     raycast.Mode(t.Render.Mode),
		IsoValue: t.Render.IsoValue,
		Parallel: true,
	}
	var fgBefore time.Duration // the foreground clock as this task begins
	if t.Render.Batch {
		opt.Yield = w.yield
		fgBefore = w.fg.clock()
	}
	res, hit, evicted, err := w.loadBrick(t.Dataset, t.Chunk)
	if err != nil {
		return FragmentBody{}, err
	}
	defer w.release(res)
	cam := raycast.NewCamera(t.Render.Angle, t.Render.Elevation, t.Render.Dist)
	tf := raycast.PresetTF(w.catalog.Get(t.Dataset).TF)
	frag := raycast.RenderBrick(res.brick, cam, tf, opt)
	w.raySamples.Add(frag.Samples)
	w.raySkipped.Add(frag.Skipped)
	// The encode below copies the pixels out, so the rendered layer goes
	// back to the free list on the way out.
	defer img.Put(frag.Image)
	meta := FragmentBody{
		JobID:     t.JobID,
		TaskIndex: t.TaskIndex,
		Codec:     CodecRuns,
		Depth:     frag.Depth,
		Hit:       hit,
		Evicted:   evicted,
	}
	if r := frag.Bounds; !r.Empty() {
		meta.X0, meta.Y0, meta.W, meta.H = r.Min.X, r.Min.Y, r.Dx(), r.Dy()
		meta.Data = encodePixels(frag.Image, r)
	}
	exec := time.Since(start)
	if t.Render.Batch {
		exec = max(exec-(w.fg.clock()-fgBefore), 0)
	}
	meta.ExecNanos = exec.Nanoseconds()
	return meta, nil
}

// yield is the hook a background render's bands call after every scanline
// (raycast.Options.Yield). With interactive tasks in flight the band waits
// for the ones it saw; otherwise it offers the processor to whatever else is
// runnable, so nothing in the process — this worker's foreground executors
// and reader, a co-located worker, an in-process head's senders, readers,
// dispatcher and finalize — waits behind a background render longer than
// one scanline.
func (w *Worker) yield() {
	if !w.fg.wait() {
		runtime.Gosched()
	}
}

// Serve processes messages from the head until the connection closes or a
// shutdown message arrives. Interactive tasks execute in arrival order, and
// so do batch tasks and warms; an interactive task does not wait for a batch
// task that arrived before it.
func (w *Worker) Serve(conn transport.Conn) error {
	hello := HelloBody{Name: w.Name, MemQuota: int64(w.quota), NodeID: w.Node()}
	return w.serve(conn, hello)
}

// Rejoin reconnects this worker to a head that has marked it down,
// reclaiming the given node slot. The worker arrives with whatever cache it
// has (typically cold: a restarted process uses a fresh Worker); the head
// assumes cold and relearns residency from fragment reports.
func (w *Worker) Rejoin(conn transport.Conn, node int) error {
	w.node.Store(int64(node))
	hello := HelloBody{Name: w.Name, MemQuota: int64(w.quota), NodeID: node, Rejoin: true, Shard: w.Shard()}
	return w.serve(conn, hello)
}

// Resync reconnects this worker to a recovered head (§5.10), reclaiming the
// given node slot with a full state re-announcement: actual cache residency
// (MRU-first) and the completed tasks whose results are retained for replay.
// The head reconciles its replayed tables against this ground truth and
// lists still-outstanding tasks in its ack; retained matches are re-sent
// without re-rendering.
func (w *Worker) Resync(conn transport.Conn, node int) error {
	w.node.Store(int64(node))
	hello := HelloBody{
		Name: w.Name, MemQuota: int64(w.quota), NodeID: node,
		Rejoin: true, Resync: true, Shard: w.Shard(),
	}
	for _, e := range w.lru.Export() {
		hello.Cached = append(hello.Cached, ChunkRef{Dataset: w.datasetName(e.ID.Dataset), Index: e.ID.Index})
	}
	for i := range w.retained {
		hello.Completed = append(hello.Completed, w.retained[i].ref)
	}
	return w.serve(conn, hello)
}

// retain remembers one completed result for resync replay, bounded FIFO.
func (w *Worker) retain(r retainedResult) {
	w.retainMu.Lock()
	defer w.retainMu.Unlock()
	for i := range w.retained {
		if w.retained[i].ref == r.ref {
			w.retained[i] = r // a re-render of the same task supersedes
			return
		}
	}
	w.retained = append(w.retained, r)
	if len(w.retained) > DefaultRetain {
		w.retained = w.retained[len(w.retained)-DefaultRetain:]
	}
}

// replayRetained re-sends retained results for the tasks the head's resync
// ack listed as outstanding: completed-but-unacked work delivers without a
// second render.
func (w *Worker) replayRetained(conn transport.Conn, outstanding []TaskRef) error {
	want := make(map[TaskRef]struct{}, len(outstanding))
	for _, ref := range outstanding {
		want[ref] = struct{}{}
	}
	for i := range w.retained {
		r := &w.retained[i]
		if _, ok := want[r.ref]; !ok {
			continue
		}
		if err := send(conn, transport.KindFragment, r.ref.JobID, &r.frag); err != nil {
			return err
		}
		w.Logf("worker %s: replayed retained J%d/T%d", w.Name, r.ref.JobID, r.ref.TaskIndex)
	}
	return nil
}

// runTask executes one task and ships its fragment. The returned error is
// a dead connection; execution failures are reported to the head and
// absorbed.
func (w *Worker) runTask(conn transport.Conn, msgID uint64, t TaskBody) error {
	frag, err := w.execute(t)
	if err != nil {
		w.Logf("worker %s: task J%d/T%d failed: %v", w.Name, t.JobID, t.TaskIndex, err)
		return send(conn, transport.KindError, msgID, ErrorBody{Msg: err.Error()})
	}
	w.tasks.Add(1)
	w.retain(retainedResult{ref: TaskRef{JobID: t.JobID, TaskIndex: t.TaskIndex}, frag: frag})
	return send(conn, transport.KindFragment, msgID, &frag)
}

// serve sends the hello, starts the heartbeat beacon, and reads messages
// into a session's lanes until the connection closes or the head says
// shutdown. It returns with the session's executors gone: a Resync after
// reconnect reads the retained results they write.
func (w *Worker) serve(conn transport.Conn, hello HelloBody) error {
	if err := send(conn, transport.KindHello, 0, hello); err != nil {
		return err
	}
	if w.Heartbeat > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go w.beat(conn, stop)
	}
	s := newSession(w, conn)
	return s.end(s.read())
}

// beat sends the liveness beacon until stop closes or a send fails — the
// connection is gone then, and the reader sees it too and returns.
func (w *Worker) beat(conn transport.Conn, stop <-chan struct{}) {
	t := time.NewTicker(w.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if err := conn.Send(transport.Message{Kind: transport.KindHeartbeat}); err != nil {
				return
			}
		}
	}
}

// ReconnectConfig tunes ServeLoop's reconnection policy.
type ReconnectConfig struct {
	// Base is the first backoff delay (default 100ms); Max caps the
	// exponential growth (default 5s).
	Base, Max time.Duration
	// Retries bounds consecutive failed reconnect attempts (default 8);
	// a session that survives longer than Base resets the counter.
	Retries int
	// Seed fixes the jitter source for deterministic tests; 0 seeds from
	// the clock.
	Seed int64
}

// ServeLoop keeps this worker connected across head restarts: dial, serve,
// and on failure redial with exponential backoff plus jitter. A first
// connection introduces the worker with Serve; once a node slot is known,
// reconnections go through Resync so a recovered head reconciles against
// the worker's announced state. A clean shutdown (the head's Shutdown
// message) returns nil; exhausting the retry budget returns the reason the
// loop gave up.
func (w *Worker) ServeLoop(dial func() (transport.Conn, error), rc ReconnectConfig) error {
	base := rc.Base
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	max := rc.Max
	if max <= 0 {
		max = 5 * time.Second
	}
	retries := rc.Retries
	if retries <= 0 {
		retries = 8
	}
	seed := rc.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(seed))
	attempt := 0
	for {
		conn, err := dial()
		if err == nil {
			began := time.Now()
			var serr error
			if node := w.Node(); node >= 0 {
				serr = w.Resync(conn, node)
			} else {
				serr = w.Serve(conn)
			}
			conn.Close()
			if serr == nil {
				// A clean exit: the head sent Shutdown (or closed the
				// connection in an orderly way). The loop is done.
				return nil
			}
			w.Logf("worker %s: session ended: %v", w.Name, serr)
			if time.Since(began) > base {
				attempt = 0 // the session was real; reset the retry budget
			}
		} else {
			w.Logf("worker %s: dial failed: %v", w.Name, err)
		}
		attempt++
		if attempt > retries {
			return fmt.Errorf("worker %s: giving up after %d reconnect attempts", w.Name, attempt-1)
		}
		backoff := base << (attempt - 1)
		if backoff > max || backoff <= 0 {
			backoff = max
		}
		backoff += time.Duration(rng.Int63n(int64(backoff)/2 + 1))
		w.Logf("worker %s: reconnecting in %v (attempt %d/%d)", w.Name, backoff.Round(time.Millisecond), attempt, retries)
		time.Sleep(backoff)
	}
}

// RayStats reports how many sample positions this worker's rays have
// visited and how many of them empty-space skipping stepped over without a
// voxel fetch (raycast.Fragment). Bricks come from their files with their
// skip structure (§5.16), so a miss skips like a hit, and the ratio is the
// share of the rendered space the transfer function cannot see, warm
// worker or cold: the renderer's half of what a task costs.
func (w *Worker) RayStats() (samples, skipped int64) {
	return w.raySamples.Load(), w.raySkipped.Load()
}

// CacheStats reports the worker cache's cumulative hit/miss/eviction
// counters. It is not synchronized with a live serve loop; read it after
// Serve returns or accept approximate values.
func (w *Worker) CacheStats() cache.Stats { return w.lru.Stats() }
