package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one metric the benchmark prints. The two tables below are
// the program's half of the contract in BENCHMARK.json; bench_test.go checks
// that the two agree name for name and unit for unit.
type metricDef struct {
	Name, Unit string
}

// endToEnd is printed by every workload with -trace 0. The names are generic
// because every workload must report every one: a "job" is a rendered frame
// on the live workloads and a simulated job on the sim workloads; a "wait" is
// what the user blocks on — one Client.Render() round trip, or one simulator
// run (sim_s3_ours) or one set of sweeps (sim_sweeps).
var endToEnd = []metricDef{
	{"jobs_per_s", "1/s"},
	{"wait_p50_ms", "ms"},
	{"wait_p95_ms", "ms"},
	{"allocs_per_job", "count"},
	{"alloc_kb_per_job", "KB"},
	{"setup_s", "s"},
}

// perLayer is printed by every workload with -trace 1. A metric whose layer
// the workload does not exercise reads 0 (the live layers on the sim
// workloads and the reverse).
var perLayer = []metricDef{
	{"client.frames", "count"},
	{"client.failed", "count"},
	{"client.frames_per_s", "1/s"},
	{"client.batch_frames_per_s", "1/s"},
	{"client.frame_p50_ms", "ms"},
	{"client.frame_p95_ms", "ms"},
	{"client.frame_p99_ms", "ms"},
	{"client.png_bytes_per_frame", "B"},
	{"client.png_decode_us_per_frame", "us"},

	{"service.jobs_completed", "count"},
	{"service.jobs_failed", "count"},
	{"service.tasks_per_frame", "count"},
	{"service.worker_exec_ms_mean", "ms"},
	{"service.worker_other_ms_per_task", "ms"},
	{"service.unattributed_ms_per_frame", "ms"},
	{"service.tasks_redispatched", "count"},

	{"core.sched_calls", "count"},
	{"core.sched_us_per_call_p50", "us"},
	{"core.sched_us_per_call_p95", "us"},
	{"core.sched_queue_len_mean", "count"},
	{"core.sched_busy_share", "share"},
	{"core.sched_cycle_share_p95", "share"},
	{"core.sched_us_per_job", "us"},
	{"core.sched_share_of_sim_wall", "share"},
	{"core.sched_probe_us_q1", "us"},
	{"core.sched_probe_us_q16", "us"},
	{"core.sched_probe_us_q256", "us"},
	{"core.sched_probe_allocs_q1", "count"},
	{"core.sched_probe_allocs_q16", "count"},
	{"core.sched_probe_allocs_q256", "count"},

	{"transport.msgs_per_frame", "count"},
	{"transport.body_kb_per_frame", "KB"},
	{"transport.send_us_per_msg_p50", "us"},
	{"transport.send_busy_share", "share"},
	{"transport.encode_task_us", "us"},
	{"transport.decode_task_us", "us"},
	{"transport.encode_frag_us", "us"},
	{"transport.decode_frag_us", "us"},
	{"transport.codec_allocs_per_frame", "count"},
	{"transport.frame_roundtrip_us", "us"},
	{"transport.tcp_echo_us", "us"},

	{"raycast.render_ms_per_brick", "ms"},
	{"raycast.render_ms_per_frame", "ms"},
	{"raycast.allocs_per_brick", "count"},
	{"raycast.share_of_frame", "share"},

	{"compositing.composite_us_per_frame", "us"},
	{"compositing.allocs_per_frame", "count"},

	{"img.png_encode_us_per_frame", "us"},
	{"img.png_alloc_kb_per_frame", "KB"},

	{"cache.hit_share", "share"},
	{"cache.evictions_per_frame", "count"},
	{"cache.load_ms_per_brick", "ms"},

	{"des.events_per_s_steady", "1/s"},
	{"des.events_per_s_cancel", "1/s"},
	{"des.allocs_per_event", "count"},

	{"sim.run_s", "s"},
	{"sim.engine_self_s", "s"},
	{"sim.engine_us_per_task", "us"},
	{"sim.jobs_per_host_s", "1/s"},
	{"sim.tasks_per_host_s", "1/s"},
	{"sim.new_s", "s"},
	{"workload.generate_s", "s"},

	{"experiments.failsweep_s", "s"},
	{"experiments.replsweep_s", "s"},
	{"experiments.qossweep_s", "s"},
	{"experiments.prefsweep_s", "s"},
	{"experiments.hasweep_s", "s"},
	{"experiments.shardsweep_s", "s"},
	{"experiments.elasticsweep_s", "s"},
	{"experiments.fracsweep_s", "s"},
	{"experiments.compsweep_s", "s"},

	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms_total", "ms"},
	{"trace.overhead_share", "share"},
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet holds one run's values for a fixed list of definitions: every
// defined name is present (zero until set) and no other name can be added.
type metricSet map[string]metric

func newMetricSet(defs []metricDef) metricSet {
	m := make(metricSet, len(defs))
	for _, d := range defs {
		m[d.Name] = metric{Unit: d.Unit}
	}
	return m
}

// set stores a value under a defined name; an undefined name is a bug in the
// benchmark, as is a value JSON cannot carry.
func (m metricSet) set(name string, v float64) {
	cur, ok := m[name]
	if !ok {
		panic("bench: metric " + name + " is not defined")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("bench: metric %s = %v", name, v))
	}
	cur.Value = v
	m[name] = cur
}

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs,
// which it sorts in place. With fewer than 100/(100−p) samples this is the
// largest one.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(float64(len(xs))*p/100)) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// median returns the middle value of xs (mean of the middle two when even),
// sorting in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// ratio is a/b, or 0 when b is 0 — for per-frame averages over a window in
// which nothing may have completed.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// stretch is one equal piece of a measured window: how long it lasted (in
// reference seconds), how many jobs completed in it, and how long each of the
// waits that ended in it took.
type stretch struct {
	secs   float64
	jobs   float64
	waitMS []float64
}

// stretches is how many pieces a live window is cut into.
const stretches = 6

// timing reduces a window's stretches to the three timing metrics. Each
// stretch gives a rate, a p50 and a p95; the metric is the median over the
// stretches. A burst of interference — a throttled second, a neighbour's
// spike — then moves a metric only if it covers half the window, where a
// whole-window p95 would be set by the burst alone.
func timing(ss []stretch) (jobsPerS, p50, p95 float64) {
	var rates, p50s, p95s []float64
	for _, s := range ss {
		if s.secs == 0 || len(s.waitMS) == 0 {
			continue
		}
		rates = append(rates, s.jobs/s.secs)
		p50s = append(p50s, percentile(s.waitMS, 50))
		p95s = append(p95s, percentile(s.waitMS, 95))
	}
	return median(rates), median(p50s), median(p95s)
}
