package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"time"

	"vizsched/internal/core"
	"vizsched/internal/des"
	"vizsched/internal/experiments"
	"vizsched/internal/metrics"
	"vizsched/internal/sim"
	"vizsched/internal/units"
	"vizsched/internal/volume"
	"vizsched/internal/workload"
)

// The sim workloads have a fixed amount of work per repetition. A run repeats
// it until the window is used up; every repetition's host time is one "wait"
// sample, and consecutive repetitions are grouped into the stretches that
// timing() takes medians over.
const (
	// minSimReps keeps a very short window (the smoke test's) meaningful.
	minSimReps = 3
	// simPanel is how many request schedules sim_s3_ours draws from a seed;
	// one round of them is a stretch, about two seconds at the default scale,
	// like a live window's.
	simPanel = 8
)

// simFacts are the simulated results that must not depend on which
// repetition, or which build of the code, produced them.
type simFacts struct {
	FPS                  float64 `json:"fps"`
	HitRate              float64 `json:"hit_rate"`
	InteractiveCompleted int64   `json:"interactive_completed"`
	BatchCompleted       int64   `json:"batch_completed"`
	SchedInvocations     int64   `json:"sched_invocations"`
}

func factsOf(rep *metrics.Report) simFacts {
	return simFacts{
		FPS: rep.MeanFramerate(), HitRate: rep.HitRate(),
		InteractiveCompleted: rep.Interactive.Completed, BatchCompleted: rep.Batch.Completed,
		SchedInvocations: rep.SchedInvocations,
	}
}

// simRun is one repetition of sim_s3_ours, timed from outside. Durations are
// in reference seconds; rawRunS is the same run on the wall clock, the clock
// Report.SchedWall is kept on.
type simRun struct {
	newS, runS, rawRunS float64
	mallocs, allocKB    float64
	rep                 *metrics.Report
}

func (r simRun) jobs() float64 { return float64(r.rep.Interactive.Issued + r.rep.Batch.Issued) }

func runScenario(cfg workload.ScenarioConfig, wl *workload.Schedule) simRun {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := clock.now()
	eng := sim.New(sim.ScenarioEngineConfig(cfg, core.NewLocalityScheduler(0), experiments.Jitter))
	built, rawBuilt := clock.now(), time.Now()
	rep := eng.Run(wl, 0)
	end, rawEnd := clock.now(), time.Now()
	runtime.ReadMemStats(&m1)
	return simRun{
		newS: (built - start) / 1e9, runS: (end - built) / 1e9, rawRunS: rawEnd.Sub(rawBuilt).Seconds(),
		mallocs: float64(m1.Mallocs - m0.Mallocs), allocKB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1024,
		rep: rep,
	}
}

// runSimScenario is sim_s3_ours: the paper's Scenario 3 (64 nodes, 32×8 GB)
// under OURS. The seed draws a panel of simPanel request schedules and the
// repetitions go round the panel, so that every stretch — one round — does the
// work of all of them: at this scale one schedule's job count and queue
// depths vary by a fifth from seed to seed, a panel's by far less.
func runSimScenario(o options, gold *golden) (*result, error) {
	cfg := workload.Scenario(o.scenario, o.scenarioScale)
	newRun := func(wl *workload.Schedule) *metrics.Report {
		return sim.New(sim.ScenarioEngineConfig(cfg, core.NewLocalityScheduler(0), experiments.Jitter)).Run(wl, 0)
	}

	// Set-up is what comes before the first timed repetition: generating the
	// panel, and one untimed run that grows the heap to its working size.
	panel := make([]*workload.Schedule, simPanel)
	var setups, genS []float64
	for o.moreSetups(setups) {
		start := clock.now()
		for k := range panel {
			spec := cfg.Spec
			spec.Seed = o.seed*simPanel + int64(k)
			panel[k] = workload.Generate(spec)
		}
		genS = append(genS, (clock.now()-start)/1e9)
		newRun(panel[0])
		setups = append(setups, (clock.now()-start)/1e9)
	}

	var runs []simRun
	var waitMS []float64
	reps := minSimReps
	if o.trace {
		reps = simPanel // SchedWall comes with the report at no cost; one round is enough
	}
	for start := time.Now(); len(runs) < reps || (!o.trace && time.Since(start) < o.window); {
		r := runScenario(cfg, panel[len(runs)%simPanel])
		runs = append(runs, r)
		waitMS = append(waitMS, (r.newS+r.runS)*1e3)
	}

	// One stretch per whole round; a window too short for one round makes do
	// with what it has.
	var ss []stretch
	for i := 0; i+simPanel <= len(runs) || (len(ss) == 0 && i < len(runs)); i += simPanel {
		var st stretch
		for _, r := range runs[i:min(i+simPanel, len(runs))] {
			st.secs += r.newS + r.runS
			st.jobs += r.jobs()
			st.waitMS = append(st.waitMS, (r.newS+r.runS)*1e3)
		}
		ss = append(ss, st)
	}

	// Gates: a schedule gives the same simulated results every time it is
	// run, the default seed's first schedule gives the pinned ones, and the
	// simulation completes jobs at all.
	res := &result{Attempted: len(runs) + 1}
	first := factsOf(runs[0].rep)
	fmt.Fprintf(os.Stderr, "sim_s3_ours: seed %d facts %+v\n", o.seed, first)
	for i := simPanel; i < len(runs); i++ {
		if got, want := factsOf(runs[i].rep), factsOf(runs[i-simPanel].rep); got != want {
			res.Failed++
			fmt.Fprintf(os.Stderr, "sim_s3_ours: repetition %d gave %+v, repetition %d %+v\n", i, got, i-simPanel, want)
		}
	}
	if gold.enforced() && o.seed == gold.Seed && o.pinned() {
		res.Attempted++
		if first != gold.SimS3 {
			res.Failed++
			fmt.Fprintf(os.Stderr, "sim_s3_ours: pinned facts are %+v\n", gold.SimS3)
		}
	}
	if first.InteractiveCompleted+first.BatchCompleted == 0 {
		res.Failed++
		fmt.Fprintln(os.Stderr, "sim_s3_ours: the simulation completed no job")
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(os.Stderr, "sim_s3_ours: %d repetitions in %d stretches, host ms %.0f, clock speed %.3f\n",
		len(runs), len(ss), waitMS, clock.speed())

	// Counts and layer times are summed over the last whole round (or over
	// everything, when there was none).
	round := runs[max(len(runs)/simPanel-1, 0)*simPanel:]
	round = round[:min(simPanel, len(round))]
	var jobs, tasks, mallocs, allocKB, newS, runS, schedS, calls, scheduled float64
	for _, r := range round {
		jobs += r.jobs()
		tasks += float64(r.rep.Hits + r.rep.Misses)
		mallocs += r.mallocs
		allocKB += r.allocKB
		newS += r.newS
		runS += r.runS
		schedS += r.rep.SchedWall.Seconds() / r.rawRunS * r.runS // onto the reference clock
		calls += float64(r.rep.SchedInvocations)
		scheduled += float64(r.rep.JobsScheduled)
	}
	if !o.trace {
		m := newMetricSet(endToEnd)
		rate, p50, p95 := timing(ss)
		m.set("jobs_per_s", rate)
		m.set("wait_p50_ms", p50)
		m.set("wait_p95_ms", p95)
		m.set("allocs_per_job", mallocs/jobs)
		m.set("alloc_kb_per_job", allocKB/jobs)
		m.set("setup_s", median(setups))
		res.Metrics = m
		return res, nil
	}

	m := newMetricSet(perLayer)
	m.set("sim.run_s", runS)
	m.set("sim.new_s", newS)
	m.set("sim.engine_self_s", runS-schedS)
	m.set("sim.engine_us_per_task", ratio((runS-schedS)*1e6, tasks))
	m.set("sim.jobs_per_host_s", jobs/runS)
	m.set("sim.tasks_per_host_s", tasks/runS)
	m.set("workload.generate_s", median(genS))
	m.set("core.sched_calls", calls)
	m.set("core.sched_us_per_job", ratio(schedS*1e6, scheduled))
	m.set("core.sched_share_of_sim_wall", schedS/runS)
	simProbes(m)
	res.Metrics = m
	return res, nil
}

// sweep is one of vizbench's extension sweeps, with vizbench's own parameters.
type sweep struct {
	name string
	csv  func(w io.Writer, scale float64) error
}

var allSweeps = []sweep{
	{"failsweep", func(w io.Writer, s float64) error {
		return experiments.FailureSweepCSV(w, experiments.FailureSweepN([]float64{0, 1, 2, 4}, s, 1))
	}},
	{"replsweep", func(w io.Writer, s float64) error {
		return experiments.ReplicaSweepCSV(w, experiments.ReplicaSweepN([]int{1, 2, 3}, []float64{0, 2, 4}, s, 1))
	}},
	{"qossweep", func(w io.Writer, s float64) error {
		return experiments.QoSSweepCSV(w, experiments.QoSSweepN([]float64{0, 1.5}, []float64{1, 2, 3}, s, 1))
	}},
	{"prefsweep", func(w io.Writer, _ float64) error {
		return experiments.PrefetchSweepCSV(w, experiments.PrefetchSweepN([]int{2, 3}, []float64{0.5, 1, 2}, 1))
	}},
	{"hasweep", func(w io.Writer, s float64) error {
		return experiments.HASweepCSV(w, experiments.HASweepN([]float64{0.05, 0.1, 0.2}, s, 1))
	}},
	{"shardsweep", func(w io.Writer, s float64) error {
		return experiments.ShardSweepCSV(w, experiments.ShardSweepN([]int{1, 2, 4, 8}, s, 1))
	}},
	{"elasticsweep", func(w io.Writer, s float64) error {
		return experiments.ElasticSweepCSV(w, experiments.ElasticSweepN([]int{10, 12}, s, 1))
	}},
	{"fracsweep", func(w io.Writer, s float64) error {
		return experiments.FracSweepCSV(w, experiments.FracSweepN(s, 1))
	}},
	{"compsweep", func(w io.Writer, _ float64) error {
		return experiments.CompSweepCSV(w, experiments.CompSweep(1))
	}},
}

// warmSweeps are the four cheapest sweeps; running them once before timing
// is sim_sweeps' set-up (heap growth and first-call costs paid up front).
var warmSweeps = map[string]bool{"prefsweep": true, "shardsweep": true, "elasticsweep": true, "compsweep": true}

// runSimSweeps is sim_sweeps: one set is all nine sweeps, in an order the
// seed picks. The sweeps keep their product-fixed seeds, because the bytes of
// their CSVs are the correctness gate.
func runSimSweeps(o options, gold *golden) (*result, error) {
	var setups []float64
	for o.moreSetups(setups) {
		start := clock.now()
		for _, s := range o.sweeps {
			if warmSweeps[s.name] {
				if err := s.csv(io.Discard, o.sweepScale); err != nil {
					return nil, err
				}
			}
		}
		setups = append(setups, (clock.now()-start)/1e9)
	}

	order := rand.New(rand.NewSource(o.seed)).Perm(len(o.sweeps))
	res := &result{}
	hashes := make(map[string]string)
	perSweep := make(map[string][]float64)
	var ss []stretch // one per set
	var mallocs, allocKB []float64
	reps := minSimReps
	if o.trace {
		reps = 1
	}
	for start := time.Now(); len(ss) < reps || (!o.trace && time.Since(start) < o.window); {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		st := stretch{jobs: float64(len(o.sweeps))} // a sweep is the job a researcher asks for
		setStart := clock.now()
		for _, i := range order {
			s := o.sweeps[i]
			var buf bytes.Buffer
			t := clock.now()
			if err := s.csv(&buf, o.sweepScale); err != nil {
				return nil, err
			}
			took := clock.now() - t
			st.waitMS = append(st.waitMS, took/1e6)
			perSweep[s.name] = append(perSweep[s.name], took/1e9)
			res.Attempted++
			got := sha(buf.Bytes())
			if prev, seen := hashes[s.name]; seen && prev != got {
				res.Failed++
				fmt.Fprintf(os.Stderr, "sim_sweeps: %s CSV changed between sets\n", s.name)
			}
			hashes[s.name] = got
		}
		st.secs = (clock.now() - setStart) / 1e9
		ss = append(ss, st)
		runtime.ReadMemStats(&m1)
		mallocs = append(mallocs, float64(m1.Mallocs-m0.Mallocs))
		allocKB = append(allocKB, float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
	}
	for _, s := range o.sweeps {
		fmt.Fprintf(os.Stderr, "sim_sweeps: %s CSV sha256 %s\n", s.name, hashes[s.name])
		if want, ok := gold.SweepCSV[s.name]; ok && gold.enforced() && o.pinned() {
			res.Attempted++
			if hashes[s.name] != want {
				res.Failed++
				fmt.Fprintf(os.Stderr, "sim_sweeps: %s CSV is pinned at %s\n", s.name, want)
			}
		}
	}
	res.Correct = res.Failed == 0

	var setS []float64
	for _, st := range ss {
		setS = append(setS, st.secs)
	}
	fmt.Fprintf(os.Stderr, "sim_sweeps: %d sets, host s %.2f, clock speed %.3f\n", len(ss), setS, clock.speed())
	if !o.trace {
		m := newMetricSet(endToEnd)
		rate, p50, p95 := timing(ss)
		m.set("jobs_per_s", rate)
		m.set("wait_p50_ms", p50)
		m.set("wait_p95_ms", p95)
		m.set("allocs_per_job", median(mallocs)/float64(len(o.sweeps)))
		m.set("alloc_kb_per_job", median(allocKB)/float64(len(o.sweeps)))
		m.set("setup_s", median(setups))
		res.Metrics = m
		return res, nil
	}
	m := newMetricSet(perLayer)
	m.set("sim.run_s", median(setS))
	for name, secs := range perSweep {
		m.set("experiments."+name+"_s", median(secs))
	}
	simProbes(m)
	res.Metrics = m
	return res, nil
}

// simProbes times the scheduler and the event kernel alone, at the shapes of
// the repository's BenchmarkSchedulerThroughput and BenchmarkDESKernel.
func simProbes(m metricSet) {
	for _, depth := range []int{1, 16, 256} {
		var queue []*core.Job
		var head *core.HeadState
		var sched *core.LocalityScheduler
		var us, allocs []float64
		for rep := 0; rep < 20; rep++ {
			sched = core.NewLocalityScheduler(0)
			head = core.NewHeadState(64, 8*units.GB, core.System2CostModel())
			queue = make([]*core.Job, depth)
			for j := range queue {
				job := &core.Job{ID: core.JobID(j + 1), Class: core.Interactive,
					Action: core.ActionID(j + 1), Dataset: volume.DatasetID(j%32 + 1)}
				job.Tasks = make([]core.Task, 16)
				for k := range job.Tasks {
					job.Tasks[k] = core.Task{Job: job, Index: k,
						Chunk: volume.ChunkID{Dataset: job.Dataset, Index: k}, Size: 512 * units.MB}
				}
				job.Remaining = 16
				queue[j] = job
			}
			u, a, _ := timeOp(1, func() { sched.Schedule(0, queue, head) })
			us, allocs = append(us, u), append(allocs, a)
		}
		m.set(fmt.Sprintf("core.sched_probe_us_q%d", depth), median(us))
		m.set(fmt.Sprintf("core.sched_probe_allocs_q%d", depth), median(allocs))
	}

	const events = 2_000_000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s := des.New()
	n := 0
	var step des.Event
	step = func(sim *des.Simulator) {
		if n++; n < events {
			sim.After(units.Microsecond, step)
		}
	}
	start := clock.now()
	s.After(units.Microsecond, step)
	s.Run(0)
	m.set("des.events_per_s_steady", events*1e9/(clock.now()-start))
	runtime.ReadMemStats(&m1)
	m.set("des.allocs_per_event", float64(m1.Mallocs-m0.Mallocs)/events)

	s = des.New()
	n = 0
	step = func(sim *des.Simulator) {
		// The engine's load and failure timers: armed, then almost always
		// cancelled.
		tmo := sim.After(units.Second, func(*des.Simulator) {})
		if n++; n < events {
			sim.After(units.Microsecond, step)
		}
		tmo.Cancel()
	}
	start = clock.now()
	s.After(units.Microsecond, step)
	s.Run(0)
	m.set("des.events_per_s_cancel", events*1e9/(clock.now()-start))
}
