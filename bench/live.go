package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vizsched/internal/core"
	"vizsched/internal/service"
	"vizsched/internal/transport"
	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// liveSpec is one live workload: a cluster shape and the frames one
// interactive user (and, with batch > 0, one animation client) asks of it.
type liveSpec struct {
	name     string
	dim      int // every dataset is dim³ voxels
	datasets int
	chunks   int // bricks per dataset
	workers  int
	width    int // frames are width×width
	tcp      bool
	// cold gives each worker room for one brick and makes every frame ask for
	// the next dataset, so every task loads from disk and evicts.
	cold bool
	// batch is the number of batch frames a second connection keeps in flight.
	batch int
}

var liveSpecs = []liveSpec{
	{name: "live_orbit_pipe", dim: 48, datasets: 1, chunks: 3, workers: 3, width: 128},
	{name: "live_fanout_tcp", dim: 32, datasets: 1, chunks: 8, workers: 4, width: 64, tcp: true},
	{name: "live_cold_sweep", dim: 128, datasets: 6, chunks: 2, workers: 2, width: 64, cold: true},
	{name: "live_mixed_batch", dim: 48, datasets: 3, chunks: 3, workers: 3, width: 128, batch: 8},
}

const (
	// omega is the OURS scheduling period ω the live workloads run with.
	omega = 2 * units.Millisecond
	// orbitFrames is how many frames one camera orbit takes: the view turns
	// 2π/64 per frame, so no two consecutive frames are equal.
	orbitFrames = 64
	// discardFrames are rendered and thrown away before a window opens.
	discardFrames = 10
	warmQuota     = 128 * units.MB
	camDist       = 2.4
	probeAng      = 0.6
	probeElev     = 0.3
)

// fields gives dataset i its content. Content never depends on the seed, so
// the work per frame is the same on every seed and the probe frame can be
// pinned.
var fields = []struct {
	tf string
	f  volume.FieldFunc
}{
	{"supernova", volume.Supernova},
	{"plume", volume.Plume},
	{"combustion", volume.Combustion},
	{"turbulence", volume.Turbulence(1)},
	{"turbulence", volume.Turbulence(2)},
	{"turbulence", volume.Turbulence(3)},
}

func datasetName(i int) string { return fmt.Sprintf("d%d", i) }

func clientConnName(i int, headSide bool) string {
	if headSide {
		return fmt.Sprintf("head<client%d", i)
	}
	return fmt.Sprintf("client%d", i)
}

// plan is everything a seed decides about a live run.
type plan struct {
	start, elev float64
	order       []int   // dataset visiting order
	batchSeeds  []int64 // one angle stream per batch slot
}

func newPlan(spec liveSpec, seed int64) plan {
	rng := rand.New(rand.NewSource(seed))
	p := plan{
		start: rng.Float64() * 2 * math.Pi,
		// A narrow elevation band: the projected footprint, and with it the
		// ray-cast cost, must not depend on the seed.
		elev:  0.28 + 0.04*rng.Float64(),
		order: rng.Perm(spec.datasets),
	}
	for i := 0; i < spec.batch; i++ {
		p.batchSeeds = append(p.batchSeeds, rng.Int63())
	}
	return p
}

// frame is the interactive user's i-th request.
func (p plan) frame(spec liveSpec, i int) service.RenderBody {
	ds := p.order[0]
	switch {
	case spec.cold:
		ds = p.order[i%len(p.order)]
	case spec.datasets > 1:
		ds = p.order[(i/orbitFrames)%len(p.order)]
	}
	return service.RenderBody{
		Dataset: datasetName(ds),
		Angle:   p.start + float64(i)*2*math.Pi/orbitFrames, Elevation: p.elev, Dist: camDist,
		Width: spec.width, Height: spec.width, Action: 1,
	}
}

// probeRequest is the fixed frame rendered before and after each window.
func probeRequest(spec liveSpec) service.RenderBody {
	return service.RenderBody{
		Dataset: datasetName(0), Angle: probeAng, Elevation: probeElev, Dist: camDist,
		Width: spec.width, Height: spec.width, Action: 1,
	}
}

// tracedClient numbers requests the way service.Client does (1, 2, … in
// RenderAsync call order), so a traced run can name the message ID of the
// request it is timing.
type tracedClient struct {
	c    *service.Client
	idx  int
	conn uint8 // the recorder's index of this client's connection name
	mu   sync.Mutex
	n    uint64
}

// render issues one request and waits for it, recording a client.render root
// span when rec is recording. The round trip is returned in reference
// milliseconds (see refClock).
func (tc *tracedClient) render(rec *recorder, req service.RenderBody) (res service.RenderResult, refMS float64, err error) {
	start, refStart := time.Now(), clock.now()
	tc.mu.Lock()
	tc.n++
	id := tc.n
	ch, err := tc.c.RenderAsync(req)
	tc.mu.Unlock()
	if err != nil {
		return service.RenderResult{}, 0, err
	}
	out := <-ch
	refMS = (clock.now() - refStart) / 1e6
	if rec != nil && rec.on.Load() {
		rec.add(span{name: spanRender, start: rec.since(start), end: rec.since(time.Now()),
			conn: tc.conn, msg: id, client: int8(tc.idx)})
	}
	return out.Result, refMS, out.Err
}

// liveCluster is a running head, its workers and the client connections.
type liveCluster struct {
	spec      liveSpec
	catalog   *service.Catalog
	head      *service.Head
	clients   []*tracedClient
	listeners []transport.Listener
	workers   sync.WaitGroup
	stopOnce  sync.Once
}

// writeDatasets generates the spec's datasets and bricks them under dir.
func writeDatasets(spec liveSpec, dir string) (*service.Catalog, error) {
	cat := service.NewCatalog()
	for i := 0; i < spec.datasets; i++ {
		name := datasetName(i)
		g := volume.Generate(fields[i].f, spec.dim, spec.dim, spec.dim)
		m, err := service.WriteDataset(filepath.Join(dir, name), name, g, spec.chunks, fields[i].tf)
		if err != nil {
			return nil, err
		}
		if err := cat.Add(m); err != nil {
			return nil, err
		}
	}
	return cat, nil
}

// bringUp is the whole set-up a run pays before it can measure: generate and
// brick the datasets, start head and workers over the spec's transport,
// connect the clients, and render one frame per dataset so caches are warm
// (on the cold workload, so first-use costs are paid). rec, when non-nil,
// decorates every connection end and the scheduler.
func bringUp(spec liveSpec, dir string, rec *recorder) (*liveCluster, error) {
	cat, err := writeDatasets(spec, dir)
	if err != nil {
		return nil, err
	}
	quota := warmQuota
	if spec.cold {
		// Room for one brick and a half: the second brick always evicts.
		quota = cat.Get(datasetName(0)).Chunks[0].SizeBytes * 3 / 2
	}
	var sched core.Scheduler = core.NewLocalityScheduler(omega)
	if rec != nil {
		sched = &tracedScheduler{LocalityScheduler: core.NewLocalityScheduler(omega), rec: rec}
	}
	head := service.NewHead(sched, cat, quota, core.DefaultCostModel())
	head.Logf = func(string, ...any) {}
	cl := &liveCluster{spec: spec, catalog: cat, head: head}

	var workerL transport.Listener
	if spec.tcp {
		if workerL, err = transport.ListenTCP("127.0.0.1:0"); err != nil {
			return nil, err
		}
		defer workerL.Close()
	}
	for i := 0; i < spec.workers; i++ {
		var headSide, workerSide transport.Conn
		if spec.tcp {
			// One dial at a time, so accept order is worker order.
			if workerSide, err = transport.DialTCP(workerL.Addr()); err != nil {
				return nil, err
			}
			if headSide, err = workerL.Accept(); err != nil {
				return nil, err
			}
		} else {
			headSide, workerSide = transport.Pipe()
		}
		w := service.NewWorker(fmt.Sprintf("worker%d", i), cat, quota)
		w.Logf = head.Logf
		conn := rec.wrap(workerSide, fmt.Sprintf("worker%d", i), -1, false)
		cl.workers.Add(1)
		go func() {
			defer cl.workers.Done()
			_ = w.Serve(conn)
			conn.Close()
		}()
		if err := head.AddWorker(rec.wrap(headSide, fmt.Sprintf("head>worker%d", i), -1, false)); err != nil {
			return nil, err
		}
	}
	if err := head.Start(); err != nil {
		return nil, err
	}

	nClients := 1
	if spec.batch > 0 {
		nClients = 2
	}
	var clientL transport.Listener
	if spec.tcp {
		if clientL, err = transport.ListenTCP("127.0.0.1:0"); err != nil {
			return nil, err
		}
		cl.listeners = append(cl.listeners, clientL)
		if rec != nil {
			clientL = &tracedListener{Listener: clientL, rec: rec}
		}
		go head.ServeClients(clientL)
	}
	for i := 0; i < nClients; i++ {
		var clientSide transport.Conn
		if spec.tcp {
			if clientSide, err = transport.DialTCP(clientL.Addr()); err != nil {
				return nil, err
			}
		} else {
			var headSide transport.Conn
			clientSide, headSide = transport.Pipe()
			go head.HandleClient(rec.wrap(headSide, clientConnName(i, true), i, true))
		}
		tc := &tracedClient{idx: i}
		conn := rec.wrap(clientSide, clientConnName(i, false), i, false)
		if traced, ok := conn.(*tracedConn); ok {
			tc.conn = traced.conn
		}
		tc.c = service.NewClient(conn)
		cl.clients = append(cl.clients, tc)
	}

	for i := 0; i < spec.datasets; i++ {
		req := probeRequest(spec)
		req.Dataset = datasetName(i)
		if _, _, err := cl.clients[0].render(nil, req); err != nil {
			return nil, fmt.Errorf("warming %s: %w", req.Dataset, err)
		}
	}
	return cl, nil
}

// stop shuts the cluster down and waits for the worker goroutines.
func (cl *liveCluster) stop() {
	cl.stopOnce.Do(func() {
		for _, c := range cl.clients {
			c.c.Close()
		}
		for _, l := range cl.listeners {
			l.Close()
		}
		cl.head.Stop()
		cl.workers.Wait()
	})
}

// driver generates a live workload's load and counts what it asked for.
type driver struct {
	cl   *liveCluster
	plan plan
	rec  *recorder
	next int // the interactive user's next frame index

	attempted, failed atomic.Int64 // every render, interactive, batch and probe
	stopBatch         chan struct{}
	batchWG           sync.WaitGroup

	batchMu   sync.Mutex
	batchDone []float64 // reference-clock time of every batch frame completed
}

// check counts one render and reports whether it produced a frame of the
// requested size. service.Client has already decoded the PNG by then.
func (d *driver) check(res service.RenderResult, err error) bool {
	d.attempted.Add(1)
	w := d.cl.spec.width
	if err != nil || res.Image == nil || res.Image.Bounds().Dx() != w || res.Image.Bounds().Dy() != w {
		d.failed.Add(1)
		return false
	}
	return true
}

// probe renders the fixed probe frame and returns its PNG bytes.
func (d *driver) probe() []byte {
	res, _, err := d.cl.clients[0].render(nil, probeRequest(d.cl.spec))
	if !d.check(res, err) {
		return nil
	}
	return res.PNG
}

// startBatch keeps spec.batch animation frames in flight on the second
// connection: each slot orbits one dataset from its own seeded start angle
// and asks for its next frame as soon as the last one returns.
func (d *driver) startBatch() {
	spec := d.cl.spec
	d.stopBatch = make(chan struct{})
	for slot := 0; slot < spec.batch; slot++ {
		d.batchWG.Add(1)
		go func() {
			defer d.batchWG.Done()
			rng := rand.New(rand.NewSource(d.plan.batchSeeds[slot]))
			start := rng.Float64() * 2 * math.Pi
			ds := datasetName(d.plan.order[slot%spec.datasets])
			for i := 0; ; i++ {
				select {
				case <-d.stopBatch:
					return
				default:
				}
				res, _, err := d.cl.clients[1].render(d.rec, service.RenderBody{
					Dataset: ds, Angle: start + float64(i)*2*math.Pi/orbitFrames,
					Elevation: d.plan.elev, Dist: camDist,
					Width: spec.width, Height: spec.width, Batch: true, Action: 100 + slot,
				})
				if d.check(res, err) {
					d.batchMu.Lock()
					d.batchDone = append(d.batchDone, clock.now())
					d.batchMu.Unlock()
				}
			}
		}()
	}
}

func (d *driver) stopBatchLoad() {
	if d.stopBatch != nil {
		close(d.stopBatch)
		d.batchWG.Wait()
	}
}

// window is what one measured stretch of frames observed, from the client
// (latencies), the process (MemStats) and the head's own counters.
type window struct {
	start, end float64   // on the reference clock, nanoseconds
	speed      float64   // reference seconds per wall second over the window
	latMS      []float64 // interactive Render() round trips that succeeded
	doneAt     []float64 // when each of them returned, on the reference clock
	batchAt    []float64 // when each batch frame of the window completed
	pngBytes   int64
	mem0, mem1 runtime.MemStats
	st0, st1   service.StatsSnapshot
}

// secs is the window's length in reference seconds.
func (w *window) secs() float64 { return (w.end - w.start) / 1e9 }

// cut splits the window into equal stretches by completion time.
func (w *window) cut() []stretch {
	ss := make([]stretch, stretches)
	span := (w.end - w.start) / stretches
	at := func(t float64) *stretch {
		return &ss[min(max(int((t-w.start)/span), 0), stretches-1)]
	}
	for i := range ss {
		ss[i].secs = span / 1e9
	}
	for i, t := range w.doneAt {
		s := at(t)
		s.jobs++
		s.waitMS = append(s.waitMS, w.latMS[i])
	}
	for _, t := range w.batchAt {
		at(t).jobs++
	}
	return ss
}

// frame runs the interactive user's next frame, recording it in w when w is
// non-nil.
func (d *driver) frame(w *window) {
	res, lat, err := d.cl.clients[0].render(d.rec, d.plan.frame(d.cl.spec, d.next))
	d.next++
	if d.check(res, err) && w != nil {
		w.latMS = append(w.latMS, lat)
		w.doneAt = append(w.doneAt, clock.now())
		w.pngBytes += int64(len(res.PNG))
	}
}

// measure drives the interactive user, closed loop, for dur.
func (d *driver) measure(dur time.Duration) *window {
	w := &window{latMS: make([]float64, 0, 4096), doneAt: make([]float64, 0, 4096)}
	runtime.GC()
	runtime.ReadMemStats(&w.mem0)
	w.st0 = d.cl.head.Stats()
	start := time.Now()
	w.start = clock.now()
	for time.Since(start) < dur {
		d.frame(w)
	}
	w.end = clock.now()
	w.speed = w.secs() / time.Since(start).Seconds()
	d.batchMu.Lock()
	for _, t := range d.batchDone {
		if t >= w.start && t < w.end {
			w.batchAt = append(w.batchAt, t)
		}
	}
	d.batchMu.Unlock()
	w.st1 = d.cl.head.Stats()
	runtime.ReadMemStats(&w.mem1)
	return w
}

// jobs is how many jobs the head completed in the window, interactive and
// batch — the divisor of every per-frame average.
func (w *window) jobs() float64 { return float64(w.st1.JobsCompleted - w.st0.JobsCompleted) }

func (w *window) tasks() float64 {
	return float64(w.st1.ChunkHits + w.st1.ChunkMisses - w.st0.ChunkHits - w.st0.ChunkMisses)
}

// execMS is the summed worker execution time (load + render + pixel encode)
// of the window's tasks, recovered from the head's running mean.
func (w *window) execMS() float64 {
	total := func(s service.StatsSnapshot) float64 {
		return s.MeanTaskMillis * float64(s.ChunkHits+s.ChunkMisses)
	}
	return total(w.st1) - total(w.st0)
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// runLive runs one live workload and fills the run's metrics.
func runLive(spec liveSpec, o options, gold *golden) (*result, error) {
	dir := filepath.Join(o.scratch, fmt.Sprintf("%s-%d", spec.name, os.Getpid()))
	defer os.RemoveAll(dir)

	// Set up several times, keep the last cluster. Each set-up is complete —
	// generation, bricking, bring-up, warm frames — in a directory of its own.
	var cl *liveCluster
	var rec *recorder
	var setups []float64
	for i := 0; o.moreSetups(setups); i++ {
		if cl != nil {
			cl.stop()
		}
		if o.trace {
			rec = newRecorder() // one per head: job numbering restarts with it
		}
		start := clock.now()
		var err error
		if cl, err = bringUp(spec, filepath.Join(dir, fmt.Sprint(i)), rec); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", spec.name, err)
		}
		setups = append(setups, (clock.now()-start)/1e9)
	}
	defer cl.stop()

	d := &driver{cl: cl, plan: newPlan(spec, o.seed), rec: rec}
	before := d.probe()
	if spec.batch > 0 {
		d.startBatch()
	}
	for i := 0; i < discardFrames; i++ {
		d.frame(nil)
	}
	var ref, w *window
	if rec == nil {
		w = d.measure(o.window)
	} else {
		// A traced run spends a quarter of its time untraced (decorators
		// passing through), so the overhead of tracing is measured in the same
		// process on the same cluster.
		ref = d.measure(o.window / 4)
		rec.reset(true)
		w = d.measure(o.window * 3 / 4)
		rec.on.Store(false)
	}
	d.stopBatchLoad()
	after := d.probe()
	cl.stop() // the layer probes below want the machine to themselves

	// Correctness gates beyond per-frame decoding: the probe frame is
	// byte-identical before and after the window, and matches its pin.
	checks, bad := 1, 0
	if before == nil || !bytes.Equal(before, after) {
		bad++
		fmt.Fprintf(os.Stderr, "%s: probe frame changed across the window\n", spec.name)
	}
	fmt.Fprintf(os.Stderr, "%s: probe frame sha256 %s\n", spec.name, sha(before))
	if want, ok := gold.ProbePNG[spec.name]; ok && gold.enforced() && o.pinned() {
		checks++
		if got := sha(before); got != want {
			bad++
			fmt.Fprintf(os.Stderr, "%s: probe frame is pinned at %s\n", spec.name, want)
		}
	}

	res := &result{
		Attempted: int(d.attempted.Load()) + checks,
		Failed:    int(d.failed.Load()) + bad,
	}
	res.Correct = res.Failed == 0
	if len(w.latMS) == 0 || w.jobs() == 0 {
		return nil, fmt.Errorf("%s: no frame completed in the window", spec.name)
	}
	if rec == nil {
		m := newMetricSet(endToEnd)
		rate, p50, p95 := timing(w.cut())
		m.set("jobs_per_s", rate)
		m.set("wait_p50_ms", p50)
		m.set("wait_p95_ms", p95)
		m.set("allocs_per_job", float64(w.mem1.Mallocs-w.mem0.Mallocs)/w.jobs())
		m.set("alloc_kb_per_job", float64(w.mem1.TotalAlloc-w.mem0.TotalAlloc)/1024/w.jobs())
		m.set("setup_s", median(setups))
		res.Metrics = m
		fmt.Fprintf(os.Stderr, "%s: %d interactive + %d batch frames in %.2f reference s, clock speed %.3f; %d stretches of about %d waits; whole-window p50 %.2f p95 %.2f ms; set-ups %.3v s\n",
			spec.name, len(w.latMS), len(w.batchAt), w.secs(), w.speed, stretches, len(w.latMS)/stretches,
			percentile(w.latMS, 50), percentile(w.latMS, 95), setups)
		return res, nil
	}

	spans := rec.snapshot()
	path := filepath.Join(o.traceDir, spec.name+".trace.jsonl")
	if err := rec.writeJSONL(path, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: %d spans in %s\n", spec.name, len(spans), path)
	m := newMetricSet(perLayer)
	liveLayers(m, spec, d, ref, w, spans)
	res.Metrics = m
	return res, nil
}
