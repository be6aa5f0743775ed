package service

import (
	"bytes"
	"cmp"
	"encoding/json"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vizsched/internal/autoscale"
	"vizsched/internal/core"
	"vizsched/internal/metrics"
)

// headStats holds the service's operational counters; all fields are
// atomics because the dispatcher writes while HTTP handlers read.
type headStats struct {
	jobsIssued     atomic.Int64
	jobsCompleted  atomic.Int64
	jobsFailed     atomic.Int64
	batchIssued    atomic.Int64
	batchCompleted atomic.Int64
	hits           atomic.Int64
	misses         atomic.Int64
	renderNanos    atomic.Int64
	workersDown    atomic.Int64

	// Of completed jobs: the pixels their fragments carried, and the pixels
	// of one whole frame per task — what full-frame fragments would have.
	fragmentPixels atomic.Int64
	framePixels    atomic.Int64

	// Fault-tolerance counters (§VI-D): deadline-triggered re-dispatches,
	// overload sheds, rejoins, and the accumulated down-time behind MTTR.
	tasksRedispatched atomic.Int64
	jobsShed          atomic.Int64
	workersRejoined   atomic.Int64
	mttrNanos         atomic.Int64
	mttrEvents        atomic.Int64

	// Failover counters (§5.10): workers that re-announced state to a
	// recovered head, clients re-attached to in-flight jobs by idempotency
	// key, and re-submissions served from the retained-result store.
	workersResynced atomic.Int64
	jobsReattached  atomic.Int64
	retainedServed  atomic.Int64

	// Replication counters (§5.6): chunks whose home moved to a warm
	// surviving replica when a worker died, and chunks left to rarest-first
	// re-seeding because no replica survived.
	chunksRehomed  atomic.Int64
	chunksReseeded atomic.Int64

	// QoS counters (§5.7): admission-control verdicts beyond plain admit.
	jobsThrottled atomic.Int64
	jobsRejected  atomic.Int64

	// Cache and prefetch counters (§5.8): evictions the workers report
	// (demand loads and cold warms alike), and the warming pipeline's
	// lifecycle from directive to demand hit.
	evictions         atomic.Int64
	prefetchIssued    atomic.Int64
	prefetchLoaded    atomic.Int64
	prefetchCancelled atomic.Int64
	prefetchHits      atomic.Int64
	prefetchWasted    atomic.Int64
	prefetchBytes     atomic.Int64
	prefetchNanos     atomic.Int64

	// Queue gauges: every job waiting for a node (the scheduler's working
	// window plus the QoS fair queues) and its batch-class subset. The
	// dispatcher refreshes them on its health-check tick.
	queueDepth   atomic.Int64
	batchBacklog atomic.Int64

	// Scheduler passes that had work to place, and those of them a Periodic
	// scheduler ran at an interactive arrival instead of the ω tick (§5.19).
	schedCycles atomic.Int64
	earlyCycles atomic.Int64

	// Autoscale (§5.12): the live scaler's desired-workers gauge, and its
	// copy of the shared machine's account — deliberately disjoint from the
	// crash counters above: a graceful drain counts there and never in
	// workersDown, tasksRedispatched, the MTTR accumulators, or
	// chunksReseeded.
	desiredWorkers atomic.Int64
	scaledMu       sync.Mutex
	scaled         metrics.AutoscaleOutcome

	// frameLat samples end-to-end frame latencies for the quantile view.
	frameLat ring[time.Duration]
}

// autoscaleSnapshot reads the desired-workers gauge and the account the live
// scaler last published; the live worker counts are the caller's.
func (s *headStats) autoscaleSnapshot() *AutoscaleSnapshot {
	s.scaledMu.Lock()
	defer s.scaledMu.Unlock()
	o := &s.scaled
	return &AutoscaleSnapshot{
		DesiredWorkers:  s.desiredWorkers.Load(),
		Drains:          o.Drains,
		DrainsCompleted: o.DrainsCompleted,
		TasksMigrated:   o.TasksMigrated,
		DrainRehomed:    o.DrainRehomed,
		DrainOrphaned:   o.DrainOrphaned,
		OrphanWarms:     o.OrphanWarms,
		BringupWarms:    o.BringupWarms,
	}
}

// ring keeps the most recent samples in a fixed window for cheap streaming
// quantiles — enough history for a monitoring scrape, bounded memory
// forever. Frame latencies and the fractional layer's busy share use it.
type ring[T cmp.Ordered] struct {
	mu   sync.Mutex
	buf  [512]T
	next int
	n    int
}

func (r *ring[T]) add(v T) {
	r.mu.Lock()
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// quantiles returns nearest-rank p50/p95/p99 over the retained window, or
// zeros when nothing has been added yet.
func (r *ring[T]) quantiles() (p50, p95, p99 T) {
	r.mu.Lock()
	sorted := append([]T(nil), r.buf[:r.n]...)
	r.mu.Unlock()
	if len(sorted) == 0 {
		return p50, p95, p99
	}
	slices.Sort(sorted)
	rank := func(p int) T { return sorted[max((len(sorted)*p+99)/100, 1)-1] }
	return rank(50), rank(95), rank(99)
}

// StatsSnapshot is a point-in-time view of the service counters.
type StatsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	JobsIssued    int64   `json:"jobs_issued"`
	JobsCompleted int64   `json:"jobs_completed"`
	// JobsFailed counts every job that failed back to a client, whatever
	// the cause: the jobs a clean recovery loses, which stays zero.
	JobsFailed     int64   `json:"jobs_failed"`
	BatchIssued    int64   `json:"batch_issued"`
	BatchCompleted int64   `json:"batch_completed"`
	ChunkHits      int64   `json:"chunk_hits"`
	ChunkMisses    int64   `json:"chunk_misses"`
	HitRatePct     float64 `json:"hit_rate_pct"`
	MeanTaskMillis float64 `json:"mean_task_ms"`
	Workers        int     `json:"workers"`
	WorkersDown    int64   `json:"workers_down"`

	TasksRedispatched int64 `json:"tasks_redispatched"`
	JobsShed          int64 `json:"jobs_shed"`
	WorkersRejoined   int64 `json:"workers_rejoined"`
	WorkersResynced   int64 `json:"workers_resynced"`
	JobsReattached    int64 `json:"jobs_reattached"`
	RetainedServed    int64 `json:"retained_served"`
	// MTTRSeconds is the mean wall time from a node's down verdict to its
	// rejoin; zero before the first rejoin.
	MTTRSeconds float64 `json:"mttr_seconds"`

	ChunksRehomed  int64 `json:"chunks_rehomed"`
	ChunksReseeded int64 `json:"chunks_reseeded"`

	// QueueDepth is every job waiting for a node; BatchBacklog is its
	// batch-class subset — the autoscaler's primary pressure signals,
	// exported whether or not autoscaling is on.
	QueueDepth   int64 `json:"queue_depth"`
	BatchBacklog int64 `json:"batch_backlog"`

	// SchedCycles counts scheduler passes run with a non-empty queue;
	// EarlyCycles is the subset a Periodic scheduler ran at the arrival of an
	// interactive frame that found the head idle, rather than at the ω tick
	// (§5.19). An OnArrival scheduler has no tick and counts none early.
	SchedCycles int64 `json:"sched_cycles"`
	EarlyCycles int64 `json:"early_cycles"`

	// CacheEvictions counts bricks worker caches dropped to make room —
	// with ChunkHits/ChunkMisses, the full cache-efficacy picture.
	CacheEvictions int64 `json:"cache_evictions"`

	// FragmentPixels totals the pixels the fragments of completed jobs
	// carried, FramePixels one whole frame per task of those jobs: their
	// ratio is the share of the screen a brick's fragment covers, and what
	// shipping rectangles instead of frames saves.
	FragmentPixels int64 `json:"fragment_pixels"`
	FramePixels    int64 `json:"frame_pixels"`

	// FrameP50Millis..FrameP99Millis are render-request-to-reply latency
	// quantiles over the most recent completed frames (zero before the first).
	FrameP50Millis float64 `json:"frame_p50_ms"`
	FrameP95Millis float64 `json:"frame_p95_ms"`
	FrameP99Millis float64 `json:"frame_p99_ms"`

	// QoS is present only when the head runs with a QoS config.
	QoS *QoSSnapshot `json:"qos,omitempty"`
	// Prefetch is present only when the head runs with a prefetch config.
	Prefetch *PrefetchSnapshot `json:"prefetch,omitempty"`
	// Autoscale is present only when the head runs with an autoscale config.
	Autoscale *AutoscaleSnapshot `json:"autoscale,omitempty"`
	// FracShare is present only when the head runs with a fractional-capacity
	// config (§5.13).
	FracShare *FracShareSnapshot `json:"fracshare,omitempty"`
}

// AutoscaleSnapshot is the elastic-fleet layer's slice of a stats snapshot
// (§5.12): the fleet shape the policy wants versus what it has, and the
// graceful-drain lifecycle counters — all disjoint from the crash counters.
type AutoscaleSnapshot struct {
	DesiredWorkers  int64 `json:"desired_workers"`
	ActiveWorkers   int   `json:"active_workers"`
	DrainingWorkers int   `json:"draining_workers"`
	Drains          int64 `json:"drains"`
	DrainsCompleted int64 `json:"drains_completed"`
	TasksMigrated   int64 `json:"tasks_migrated"`
	DrainRehomed    int64 `json:"drain_rehomed"`
	DrainOrphaned   int64 `json:"drain_orphaned"`
	OrphanWarms     int64 `json:"orphan_warms"`
	BringupWarms    int64 `json:"bringup_warms"`
}

// PrefetchSnapshot is the predictive-warming layer's slice of a stats
// snapshot (§5.8): how many warms were issued, how many landed, and how many
// of those were touched by demand before eviction.
type PrefetchSnapshot struct {
	Issued         int64   `json:"issued"`
	Loaded         int64   `json:"loaded"`
	Cancelled      int64   `json:"cancelled"`
	Hits           int64   `json:"hits"`
	Wasted         int64   `json:"wasted"`
	BytesMoved     int64   `json:"bytes_moved"`
	HitRatePct     float64 `json:"hit_rate_pct"`
	MeanLoadMillis float64 `json:"mean_load_ms"`
}

// QoSSnapshot is the QoS subsystem's slice of a stats snapshot: the
// degradation ladder position, aggregate admission verdicts, Jain's fairness
// index over per-tenant completions, and per-tenant accounting.
type QoSSnapshot struct {
	Level         int     `json:"level"`
	LevelName     string  `json:"level_name"`
	MaxLevel      int     `json:"max_level"`
	LevelChanges  int64   `json:"level_changes"`
	JobsThrottled int64   `json:"jobs_throttled"`
	JobsRejected  int64   `json:"jobs_rejected"`
	Jain          float64 `json:"jain_fairness"`
	// SLOMillis is the interactive SLO the headroom gauges measure against;
	// MinHeadroomPct is the worst tenant's SLO headroom (100 × (1 − p95/SLO),
	// clamped to [0,100]) — the autoscaler's scale-up trigger.
	SLOMillis      float64             `json:"slo_ms"`
	MinHeadroomPct float64             `json:"min_headroom_pct"`
	Tenants        []TenantQoSSnapshot `json:"tenants,omitempty"`
}

// TenantQoSSnapshot is one tenant's admission and latency accounting.
type TenantQoSSnapshot struct {
	Tenant    int     `json:"tenant"`
	Issued    int64   `json:"issued"`
	Admitted  int64   `json:"admitted"`
	Throttled int64   `json:"throttled"`
	Rejected  int64   `json:"rejected"`
	Shed      int64   `json:"shed"`
	Completed int64   `json:"completed"`
	Failed    int64   `json:"failed"`
	P50Millis float64 `json:"p50_ms"`
	P95Millis float64 `json:"p95_ms"`
	P99Millis float64 `json:"p99_ms"`
	// HeadroomPct is this tenant's SLO headroom, 100 × (1 − p95/SLO) clamped
	// to [0,100]; 100 with no observations yet.
	HeadroomPct float64 `json:"headroom_pct"`
}

// Stats returns the service counters. Valid after Start.
func (h *Head) Stats() StatsSnapshot {
	s := StatsSnapshot{
		JobsIssued:     h.stats.jobsIssued.Load(),
		JobsCompleted:  h.stats.jobsCompleted.Load(),
		JobsFailed:     h.stats.jobsFailed.Load(),
		BatchIssued:    h.stats.batchIssued.Load(),
		BatchCompleted: h.stats.batchCompleted.Load(),
		ChunkHits:      h.stats.hits.Load(),
		ChunkMisses:    h.stats.misses.Load(),
		Workers:        len(h.slots),
		WorkersDown:    h.stats.workersDown.Load(),

		TasksRedispatched: h.stats.tasksRedispatched.Load(),
		JobsShed:          h.stats.jobsShed.Load(),
		WorkersRejoined:   h.stats.workersRejoined.Load(),
		WorkersResynced:   h.stats.workersResynced.Load(),
		JobsReattached:    h.stats.jobsReattached.Load(),
		RetainedServed:    h.stats.retainedServed.Load(),
		ChunksRehomed:     h.stats.chunksRehomed.Load(),
		ChunksReseeded:    h.stats.chunksReseeded.Load(),
		CacheEvictions:    h.stats.evictions.Load(),
		FragmentPixels:    h.stats.fragmentPixels.Load(),
		FramePixels:       h.stats.framePixels.Load(),

		QueueDepth:   h.stats.queueDepth.Load(),
		BatchBacklog: h.stats.batchBacklog.Load(),
	}
	// Early first: the dispatcher counts a pass, then counts it early, so
	// this order never reads more early passes than passes.
	s.EarlyCycles = h.stats.earlyCycles.Load()
	s.SchedCycles = h.stats.schedCycles.Load()
	if n := h.stats.mttrEvents.Load(); n > 0 {
		s.MTTRSeconds = time.Duration(h.stats.mttrNanos.Load() / n).Seconds()
	}
	if h.started {
		s.UptimeSeconds = h.wall().Sub(h.start).Seconds()
	}
	p50, p95, p99 := h.stats.frameLat.quantiles()
	s.FrameP50Millis, s.FrameP95Millis, s.FrameP99Millis = p50.Seconds()*1e3, p95.Seconds()*1e3, p99.Seconds()*1e3
	if total := s.ChunkHits + s.ChunkMisses; total > 0 {
		s.HitRatePct = 100 * float64(s.ChunkHits) / float64(total)
		s.MeanTaskMillis = float64(h.stats.renderNanos.Load()) / float64(total) / 1e6
	}
	if h.qosc != nil {
		o := h.qosc.Outcome()
		level := h.qosc.Level()
		slo := h.qosc.SLO()
		q := &QoSSnapshot{
			Level:          int(level),
			LevelName:      level.String(),
			MaxLevel:       o.MaxLevel,
			LevelChanges:   o.LevelChanges,
			JobsThrottled:  h.stats.jobsThrottled.Load(),
			JobsRejected:   h.stats.jobsRejected.Load(),
			Jain:           o.Jain(),
			SLOMillis:      slo.Seconds() * 1e3,
			MinHeadroomPct: 100,
		}
		for _, t := range o.Tenants {
			headroom := 100 * autoscale.Headroom(t.Latency.P95, slo)
			if headroom < q.MinHeadroomPct {
				q.MinHeadroomPct = headroom
			}
			q.Tenants = append(q.Tenants, TenantQoSSnapshot{
				Tenant:      t.Tenant,
				Issued:      t.Issued,
				Admitted:    t.Admitted,
				Throttled:   t.Throttled,
				Rejected:    t.Rejected,
				Shed:        t.ShedTotal,
				Completed:   t.Completed,
				Failed:      t.Failed,
				P50Millis:   t.Latency.P50.Seconds() * 1e3,
				P95Millis:   t.Latency.P95.Seconds() * 1e3,
				P99Millis:   t.Latency.P99.Seconds() * 1e3,
				HeadroomPct: headroom,
			})
		}
		s.QoS = q
	}
	if h.prefc != nil {
		p := &PrefetchSnapshot{
			Issued:     h.stats.prefetchIssued.Load(),
			Loaded:     h.stats.prefetchLoaded.Load(),
			Cancelled:  h.stats.prefetchCancelled.Load(),
			Hits:       h.stats.prefetchHits.Load(),
			Wasted:     h.stats.prefetchWasted.Load(),
			BytesMoved: h.stats.prefetchBytes.Load(),
		}
		if p.Loaded > 0 {
			p.HitRatePct = 100 * float64(p.Hits) / float64(p.Loaded)
			p.MeanLoadMillis = float64(h.stats.prefetchNanos.Load()) / float64(p.Loaded) / 1e6
		}
		s.Prefetch = p
	}
	if h.Autoscale != nil {
		a := h.stats.autoscaleSnapshot()
		for k := range h.slots {
			switch core.Health(h.slots[k].health.Load()) {
			case core.HealthUp, core.HealthSuspect:
				a.ActiveWorkers++
			case core.HealthDraining:
				a.DrainingWorkers++
			}
		}
		s.Autoscale = a
	}
	if h.frac != nil {
		s.FracShare = h.frac.snapshot(h.now())
	}
	return s
}

// StatsHandler serves the counters as JSON (GET /) and in Prometheus text
// exposition format (GET /metrics) — what an operator points monitoring at:
//
//	mux := http.NewServeMux()
//	mux.Handle("/", head.StatsHandler())
//	go http.ListenAndServe(":8080", mux)
func (h *Head) StatsHandler() http.Handler { return statsHandler([]*Head{h}) }

// statsHandler serves the stats pages of one head or of every shard of a
// sharded plane. With more than one head, JSON / is an array of snapshots in
// shard order and every /metrics sample carries shard="i" as its first label.
func statsHandler(heads []*Head) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if len(heads) == 1 {
			_ = enc.Encode(heads[0].Stats())
			return
		}
		snaps := make([]StatsSnapshot, len(heads))
		for i, h := range heads {
			snaps[i] = h.Stats()
		}
		_ = enc.Encode(snaps)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		var p metricsPage
		for i, h := range heads {
			if len(heads) > 1 {
				p.shard = label("shard", i)
			}
			p.snapshot(h.Stats())
		}
		if len(heads) > 1 {
			p.groupFamilies()
		}
		_, _ = w.Write(p.buf)
	})
	return mux
}

// metricsPage renders snapshots in the Prometheus text exposition format.
type metricsPage struct {
	buf   []byte
	shard string // every sample's first label when set
}

// label renders one name="v" label pair.
func label(name string, v int) string { return name + `="` + strconv.Itoa(v) + `"` }

// write appends one sample line.
func (p *metricsPage) write(name string, v float64, labels ...string) {
	if p.shard != "" {
		labels = append([]string{p.shard}, labels...)
	}
	p.buf = append(p.buf, "vizsched_"+name...)
	if len(labels) > 0 {
		p.buf = append(p.buf, "{"+strings.Join(labels, ",")+"}"...)
	}
	p.buf = append(strconv.AppendFloat(append(p.buf, ' '), v, 'f', -1, 64), '\n')
}

// quantiles appends the p50/p95/p99 samples of one family, each divided by
// div, with quantile="q" after the other labels.
func (p *metricsPage) quantiles(name string, div, p50, p95, p99 float64, labels ...string) {
	for _, q := range [...]struct {
		q string
		v float64
	}{{"0.5", p50}, {"0.95", p95}, {"0.99", p99}} {
		p.write(name, q.v/div, append(labels, `quantile="`+q.q+`"`)...)
	}
}

// groupFamilies makes each family's samples one contiguous group, as the
// exposition format requires of a page holding several shards: families keep
// the order they first appear in, and a family's samples keep shard order.
func (p *metricsPage) groupFamilies() {
	lines := bytes.SplitAfter(p.buf, []byte("\n"))
	family := func(line []byte) string { return string(line[:max(bytes.IndexAny(line, "{ "), 0)]) }
	first := map[string]int{}
	for i, line := range lines {
		if _, ok := first[family(line)]; !ok {
			first[family(line)] = i
		}
	}
	slices.SortStableFunc(lines, func(a, b []byte) int { return cmp.Compare(first[family(a)], first[family(b)]) })
	p.buf = bytes.Join(lines, nil)
}

// snapshot appends every family of one head's snapshot.
func (p *metricsPage) snapshot(s StatsSnapshot) {
	p.write("jobs_issued_total", float64(s.JobsIssued))
	p.write("jobs_completed_total", float64(s.JobsCompleted))
	p.write("jobs_failed_total", float64(s.JobsFailed))
	p.write("batch_issued_total", float64(s.BatchIssued))
	p.write("batch_completed_total", float64(s.BatchCompleted))
	p.write("chunk_hits_total", float64(s.ChunkHits))
	p.write("chunk_misses_total", float64(s.ChunkMisses))
	p.write("workers", float64(s.Workers))
	p.write("workers_down", float64(s.WorkersDown))
	p.write("tasks_redispatched_total", float64(s.TasksRedispatched))
	p.write("jobs_shed_total", float64(s.JobsShed))
	p.write("workers_rejoined_total", float64(s.WorkersRejoined))
	p.write("workers_resynced_total", float64(s.WorkersResynced))
	p.write("jobs_reattached_total", float64(s.JobsReattached))
	p.write("retained_served_total", float64(s.RetainedServed))
	p.write("chunks_rehomed_total", float64(s.ChunksRehomed))
	p.write("chunks_reseeded_total", float64(s.ChunksReseeded))
	p.write("cache_evictions_total", float64(s.CacheEvictions))
	p.write("fragment_pixels_total", float64(s.FragmentPixels))
	p.write("frame_pixels_total", float64(s.FramePixels))
	p.write("queue_depth", float64(s.QueueDepth))
	p.write("batch_backlog", float64(s.BatchBacklog))
	// "tick" is the scheduler's own trigger (the ω tick of a Periodic one);
	// "arrival" is the early passes of §5.19.
	p.write("sched_cycles_total", float64(s.SchedCycles-s.EarlyCycles), `trigger="tick"`)
	p.write("sched_cycles_total", float64(s.EarlyCycles), `trigger="arrival"`)
	p.quantiles("frame_latency_seconds", 1e3, s.FrameP50Millis, s.FrameP95Millis, s.FrameP99Millis)
	p.write("mttr_seconds", s.MTTRSeconds)
	p.write("uptime_seconds", s.UptimeSeconds)
	if q := s.QoS; q != nil {
		p.write("jobs_throttled_total", float64(q.JobsThrottled))
		p.write("jobs_rejected_total", float64(q.JobsRejected))
		p.write("qos_level", float64(q.Level))
		p.write("qos_max_level", float64(q.MaxLevel))
		p.write("qos_level_changes_total", float64(q.LevelChanges))
		p.write("fairness_jain", q.Jain)
		p.write("qos_slo_seconds", q.SLOMillis/1e3)
		p.write("qos_min_headroom_pct", q.MinHeadroomPct)
		for _, t := range q.Tenants {
			l := label("tenant", t.Tenant)
			p.write("tenant_jobs_issued_total", float64(t.Issued), l)
			p.write("tenant_jobs_admitted_total", float64(t.Admitted), l)
			p.write("tenant_jobs_throttled_total", float64(t.Throttled), l)
			p.write("tenant_jobs_rejected_total", float64(t.Rejected), l)
			p.write("tenant_jobs_shed_total", float64(t.Shed), l)
			p.write("tenant_jobs_completed_total", float64(t.Completed), l)
			p.write("tenant_jobs_failed_total", float64(t.Failed), l)
			p.quantiles("tenant_latency_seconds", 1e3, t.P50Millis, t.P95Millis, t.P99Millis, l)
			p.write("tenant_slo_headroom_pct", t.HeadroomPct, l)
		}
	}
	if f := s.Prefetch; f != nil {
		p.write("prefetch_issued_total", float64(f.Issued))
		p.write("prefetch_loaded_total", float64(f.Loaded))
		p.write("prefetch_cancelled_total", float64(f.Cancelled))
		p.write("prefetch_hits_total", float64(f.Hits))
		p.write("prefetch_wasted_total", float64(f.Wasted))
		p.write("prefetch_bytes_moved_total", float64(f.BytesMoved))
		p.write("prefetch_hit_rate_pct", f.HitRatePct)
	}
	if a := s.Autoscale; a != nil {
		p.write("autoscale_desired_workers", float64(a.DesiredWorkers))
		p.write("autoscale_active_workers", float64(a.ActiveWorkers))
		p.write("autoscale_draining_workers", float64(a.DrainingWorkers))
		p.write("autoscale_drains_total", float64(a.Drains))
		p.write("autoscale_drains_completed_total", float64(a.DrainsCompleted))
		p.write("autoscale_tasks_migrated_total", float64(a.TasksMigrated))
		p.write("autoscale_drain_rehomed_total", float64(a.DrainRehomed))
		p.write("autoscale_drain_orphaned_total", float64(a.DrainOrphaned))
		p.write("autoscale_orphan_warms_total", float64(a.OrphanWarms))
		p.write("autoscale_bringup_warms_total", float64(a.BringupWarms))
	}
	if f := s.FracShare; f != nil {
		p.write("fracshare_slots", float64(f.Slots))
		p.write("fracshare_tasks_dispatched_total", float64(f.TasksDispatched))
		p.write("fracshare_tasks_completed_total", float64(f.TasksCompleted))
		p.write("fracshare_mean_busy_pct", f.MeanBusyPct)
		for k := range f.NodeBusyPct {
			l := label("node", k)
			p.write("fracshare_node_busy_pct", f.NodeBusyPct[k], l)
			p.write("fracshare_node_in_flight", float64(f.NodeInFlight[k]), l)
		}
		p.quantiles("fracshare_busy_pct", 1, f.BusyP50Pct, f.BusyP95Pct, f.BusyP99Pct)
	}
}
