// Benchmarks regenerating the paper's evaluation (§VI), one benchmark per
// table or figure, plus ablations over the design choices DESIGN.md calls
// out. Scenario benchmarks run at a reduced workload scale by default so
// `go test -bench=.` completes in minutes on a laptop; set
// VIZSCHED_SCALE=1.0 for the paper's full job counts.
//
// Reported custom metrics: fps (mean per-action framerate, target 33.33),
// hit_pct (data reuse), lat_ms (mean interactive latency),
// sched_ns/job (Table III's scheduling cost).
package vizsched

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"vizsched/internal/cache"
	"vizsched/internal/compositing"
	"vizsched/internal/core"
	"vizsched/internal/des"
	"vizsched/internal/experiments"
	"vizsched/internal/img"
	"vizsched/internal/metrics"
	"vizsched/internal/raycast"
	"vizsched/internal/service"
	"vizsched/internal/sim"
	"vizsched/internal/units"
	"vizsched/internal/volume"
	"vizsched/internal/workload"
)

// benchScale returns the workload scale for scenario benchmarks.
func benchScale(def float64) float64 {
	if s := os.Getenv("VIZSCHED_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 && v <= 1 {
			return v
		}
	}
	return def
}

// reportScenario attaches the figure's quantities to the benchmark output.
func reportScenario(b *testing.B, rep *metrics.Report) {
	b.ReportMetric(rep.MeanFramerate(), "fps")
	b.ReportMetric(100*rep.HitRate(), "hit_pct")
	b.ReportMetric(rep.Interactive.Latency.Mean().Milliseconds(), "lat_ms")
	b.ReportMetric(float64(rep.AvgSchedCostPerJob().Nanoseconds()), "sched_ns/job")
}

// benchScenario runs one Table II scenario under every scheduler.
func benchScenario(b *testing.B, id workload.ScenarioID, defScale float64) {
	cfg := workload.Scenario(id, benchScale(defScale))
	for _, mk := range experiments.Schedulers() {
		name := mk.Name()
		b.Run(name, func(b *testing.B) {
			var rep *metrics.Report
			for i := 0; i < b.N; i++ {
				sched, err := experiments.SchedulerByName(name)
				if err != nil {
					b.Fatal(err)
				}
				rep = sim.RunScenario(cfg, sched, experiments.Jitter)
			}
			reportScenario(b, rep)
		})
	}
}

// BenchmarkFig4Scenario1 regenerates Fig. 4: six steady users on an 8-node
// cluster with fully cacheable data — pure load balancing.
func BenchmarkFig4Scenario1(b *testing.B) { benchScenario(b, workload.Scenario1, 0.2) }

// BenchmarkFig5Scenario2 regenerates Fig. 5: short user actions plus batch
// jobs with data exceeding memory — locality utilization.
func BenchmarkFig5Scenario2(b *testing.B) { benchScenario(b, workload.Scenario2, 0.2) }

// BenchmarkFig6Scenario3 regenerates Fig. 6: a light-load mixed environment
// on 64 nodes of the ANL system.
func BenchmarkFig6Scenario3(b *testing.B) { benchScenario(b, workload.Scenario3, 0.05) }

// BenchmarkFig7Scenario4 regenerates Fig. 7: 1 TB of data, 423k jobs —
// the heavy-load environment.
func BenchmarkFig7Scenario4(b *testing.B) { benchScenario(b, workload.Scenario4, 0.025) }

// BenchmarkFig2Pipeline measures the real visualization pipeline stages of
// Fig. 2 on the live substrate: brick load from disk, ray casting, and
// image compositing. The orders of magnitude (I/O ≫ render ≈ composite)
// are the paper's motivating observation.
func BenchmarkFig2Pipeline(b *testing.B) {
	dir := b.TempDir()
	g := volume.Generate(volume.Supernova, 64, 64, 64)
	m, err := service.WriteDataset(filepath.Join(dir, "nova"), "nova", g, 4, "supernova")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("io_load_brick", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := m.LoadBrick(i % 4); err != nil {
				b.Fatal(err)
			}
		}
	})
	brick, err := m.LoadBrick(1)
	if err != nil {
		b.Fatal(err)
	}
	cam := raycast.NewCamera(0.6, 0.3, 2.4)
	tf := raycast.PresetTF("supernova")
	opt := raycast.Options{Width: 256, Height: 256}
	b.Run("render_brick", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			raycast.RenderBrick(brick, cam, tf, opt)
		}
	})
	frag := raycast.RenderBrick(brick, cam, tf, opt)
	layers := []*img.Image{frag.Image, frag.Image.Clone(), frag.Image.Clone(), frag.Image.Clone()}
	b.Run("composite_2_3_swap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			compositing.TwoThreeSwap{}.Composite(layers)
		}
	})
}

// tableIIICall builds Table III's isolated measurement — a cold 64-node
// head and a queue of 32 simultaneous 16-chunk jobs over 16 datasets — and
// returns the scheduler with the Schedule call that is timed.
func tableIIICall(name string) func() {
	const nodes, nJobs = 64, 32
	// FCFSU's uniform decomposition yields one task per node — four times
	// the tasks of the Chkmax policies here, which is why the paper finds it
	// the most expensive to schedule.
	chunks := 16
	if name == "FCFSU" {
		chunks = nodes
	}
	queue := make([]*core.Job, nJobs)
	for j := range queue {
		job := &core.Job{
			ID:      core.JobID(j + 1),
			Class:   core.Interactive,
			Action:  core.ActionID(j%16 + 1),
			Dataset: volume.DatasetID(j%16 + 1),
		}
		job.Tasks = make([]core.Task, chunks)
		for i := range job.Tasks {
			job.Tasks[i] = core.Task{
				Job: job, Index: i,
				Chunk: volume.ChunkID{Dataset: job.Dataset, Index: i},
				Size:  512 * units.MB,
			}
		}
		job.Remaining = int32(chunks)
		queue[j] = job
	}
	sched, _ := experiments.SchedulerByName(name)
	head := core.NewHeadState(nodes, 8*units.GB, core.System2CostModel())
	return func() { sched.Schedule(0, queue, head) }
}

// BenchmarkTableIIISchedulingCost isolates Table III's "avg. cost": the
// wall time of one Schedule invocation over a queue of simultaneous jobs,
// for each policy, on a 64-node head.
func BenchmarkTableIIISchedulingCost(b *testing.B) {
	for _, name := range []string{"FS", "SF", "FCFS", "FCFSU", "FCFSL", "OURS"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				call := tableIIICall(name)
				b.StartTimer()
				call()
			}
			// Per-job cost, Table III's unit.
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/32, "ns/job")
		})
	}
}

// TestTableIIICostOrdering pins the part of Table III's cost ordering
// (paper, Scenario 3: FS 677 < FCFSL 1002 < OURS 1446 < FCFSU 2019 µs) that
// this implementation reproduces with a margin a timing test can hold: FS
// is the cheapest of the FCFS family and FCFSU, which schedules p tasks a
// job, is the costliest of the four. Every absolute number moves when the
// tables or a scheduler get faster (DESIGN.md §5.17); these relations are
// what EXPERIMENTS.md reports as reproduced. Costs are minima over
// interleaved repetitions, and a failed comparison is re-measured before it
// counts, so a noisy neighbour cannot fail the test but an inversion does.
// The race detector's instrumentation reorders the costs, so it is skipped
// there.
func TestTableIIICostOrdering(t *testing.T) {
	if raceEnabled {
		t.Skip("timing order does not hold under the race detector")
	}
	names := []string{"FS", "FCFSL", "OURS", "FCFSU"}
	best := map[string]time.Duration{}
	for attempt := 1; ; attempt++ {
		for rep := 0; rep < 10; rep++ {
			for _, name := range names {
				call := tableIIICall(name)
				start := time.Now()
				call()
				if d := time.Since(start); best[name] == 0 || d < best[name] {
					best[name] = d
				}
			}
		}
		if best["FS"] < best["FCFSL"] && best["FCFSL"] < best["FCFSU"] && best["OURS"] < best["FCFSU"] {
			return
		}
		if attempt == 5 {
			t.Fatalf("Table III ordering lost: want FS < FCFSL < FCFSU and OURS < FCFSU, measured %v", best)
		}
	}
}

// BenchmarkFig8ActionsSweep regenerates Fig. 8: scheduling cost per job as
// simultaneous user actions grow, for FCFSU, FCFSL, and OURS.
func BenchmarkFig8ActionsSweep(b *testing.B) {
	for _, actions := range []int{1, 8, 32, 64, 128} {
		b.Run(fmt.Sprintf("actions-%d", actions), func(b *testing.B) {
			var pts []experiments.Fig8Point
			for i := 0; i < b.N; i++ {
				pts = experiments.Fig8ActionSweepN([]int{actions}, 2, 1)
			}
			p := pts[0]
			b.ReportMetric(float64(p.Cost["OURS"].Nanoseconds()), "ours_ns/job")
			b.ReportMetric(float64(p.Cost["FCFSL"].Nanoseconds()), "fcfsl_ns/job")
			b.ReportMetric(float64(p.Cost["FCFSU"].Nanoseconds()), "fcfsu_ns/job")
		})
	}
}

// BenchmarkFig9DatasetSweep regenerates Fig. 9: OURS scheduling cost,
// framerate, and latency as the number of 8 GB datasets grows past the
// cluster's memory capacity.
func BenchmarkFig9DatasetSweep(b *testing.B) {
	for _, datasets := range []int{2, 8, 16, 24, 32} {
		b.Run(fmt.Sprintf("datasets-%d", datasets), func(b *testing.B) {
			var pts []experiments.Fig9Point
			for i := 0; i < b.N; i++ {
				pts = experiments.Fig9DatasetSweepN([]int{datasets}, 3, 1)
			}
			p := pts[0]
			b.ReportMetric(float64(p.Cost.Nanoseconds()), "sched_ns/job")
			b.ReportMetric(p.Framerate, "fps")
			b.ReportMetric(p.Latency.Milliseconds(), "lat_ms")
		})
	}
}

// --- Ablations (DESIGN.md §6) ---

// BenchmarkAblationCompositing compares the sort-last compositing
// algorithms across render-group sizes (supports the choice of 2-3 swap,
// reference [13]), including the sizes the compsweep experiment prices: the
// single-machine cost of each algorithm's float work and data movement.
func BenchmarkAblationCompositing(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	mkLayers := func(n int) []*img.Image {
		layers := make([]*img.Image, n)
		for i := range layers {
			m := img.New(128, 128)
			for p := range m.Pix {
				a := rng.Float32()
				m.Pix[p] = img.RGBA{R: rng.Float32() * a, G: rng.Float32() * a, B: rng.Float32() * a, A: a}
			}
			layers[i] = m
		}
		return layers
	}
	for _, n := range []int{4, 8, 16, 27, 64} {
		layers := mkLayers(n)
		for _, alg := range []interface {
			Name() string
			Composite([]*img.Image) (*img.Image, compositing.Stats)
		}{
			compositing.Serial{}, compositing.DirectSend{},
			compositing.BinarySwap{}, compositing.TwoThreeSwap{},
		} {
			b.Run(fmt.Sprintf("%s/layers-%d", alg.Name(), n), func(b *testing.B) {
				var st compositing.Stats
				for i := 0; i < b.N; i++ {
					_, st = alg.Composite(layers)
				}
				b.ReportMetric(float64(st.Rounds), "rounds")
				b.ReportMetric(float64(st.Messages), "msgs")
				b.ReportMetric(float64(st.PixelsSent), "px_moved")
			})
		}
	}
}

// BenchmarkAblationCycle sweeps the scheduling cycle ω: the paper notes ω
// must be chosen so interactive jobs are scheduled timely with minimal
// overhead.
func BenchmarkAblationCycle(b *testing.B) {
	cfg := workload.Scenario(workload.Scenario2, benchScale(0.1))
	for _, cycle := range []units.Duration{
		2 * units.Millisecond, 10 * units.Millisecond,
		50 * units.Millisecond, 200 * units.Millisecond,
	} {
		b.Run(fmt.Sprintf("omega-%v", cycle), func(b *testing.B) {
			var rep *metrics.Report
			for i := 0; i < b.N; i++ {
				rep = sim.RunScenario(cfg, core.NewLocalityScheduler(cycle), experiments.Jitter)
			}
			reportScenario(b, rep)
		})
	}
}

// BenchmarkAblationIdleGuard toggles the ε idle-time threshold that defers
// non-cached batch work away from interactive nodes.
func BenchmarkAblationIdleGuard(b *testing.B) {
	cfg := workload.Scenario(workload.Scenario2, benchScale(0.1))
	for _, disabled := range []bool{false, true} {
		name := "guarded"
		if disabled {
			name = "unguarded"
		}
		b.Run(name, func(b *testing.B) {
			var rep *metrics.Report
			for i := 0; i < b.N; i++ {
				s := core.NewLocalityScheduler(0)
				s.DisableIdleGuard = disabled
				rep = sim.RunScenario(cfg, s, experiments.Jitter)
			}
			reportScenario(b, rep)
		})
	}
}

// BenchmarkAblationChunkSize sweeps Chkmax (§III-C): too small multiplies
// per-task overheads; too large limits placement freedom.
func BenchmarkAblationChunkSize(b *testing.B) {
	for _, chkmax := range []units.Bytes{128 * units.MB, 256 * units.MB, 512 * units.MB, units.GB} {
		b.Run(chkmax.String(), func(b *testing.B) {
			var rep *metrics.Report
			for i := 0; i < b.N; i++ {
				cfg := workload.Scenario(workload.Scenario1, benchScale(0.2))
				cfg.Chkmax = chkmax
				rep = sim.RunScenario(cfg, core.NewLocalityScheduler(0), experiments.Jitter)
			}
			reportScenario(b, rep)
		})
	}
}

// BenchmarkAblationNodeModel compares the paper's serial node model
// (Definition 1) against the future-work extensions: overlapped I/O,
// a two-level GPU-memory hierarchy, and dual-GPU nodes, all under OURS on
// scenario 2. The rows are nodeModels, which TestNodeModelGolden pins.
func BenchmarkAblationNodeModel(b *testing.B) {
	scale := benchScale(0.1)
	for _, m := range nodeModels {
		b.Run(m.name, func(b *testing.B) {
			var rep *metrics.Report
			for i := 0; i < b.N; i++ {
				rep = runNodeModel(scale, m.mod)
			}
			reportScenario(b, rep)
		})
	}
}

// BenchmarkAblationEviction compares cache replacement policies on a
// memory-pressured scenario 2 under OURS.
func BenchmarkAblationEviction(b *testing.B) {
	base := workload.Scenario(workload.Scenario2, benchScale(0.1))
	for _, p := range []cache.Policy{cache.PolicyLRU, cache.PolicyFIFO, cache.PolicyRandom, cache.PolicyLFU} {
		b.Run(p.String(), func(b *testing.B) {
			var rep *metrics.Report
			for i := 0; i < b.N; i++ {
				cfg := sim.Config{
					Nodes:          base.Nodes,
					MemQuota:       base.MemQuota,
					Model:          core.System1CostModel(),
					Scheduler:      core.NewLocalityScheduler(0),
					Library:        base.Library(volume.MaxChunk{Chkmax: base.Chkmax}),
					Jitter:         experiments.Jitter,
					Seed:           7,
					Preload:        true,
					EvictionPolicy: p,
				}
				rep = sim.New(cfg).Run(workload.Generate(base.Spec), 0)
			}
			reportScenario(b, rep)
		})
	}
}

// BenchmarkAblationRaycaster measures the software renderer (the GPU
// substitute) across image sizes, sequential versus parallel. The plain
// rows render a volume the renderer has not seen before, as a cache miss
// does; the resident rows render the same three slabs again and again, as
// a worker with a warm cache does — the case empty-space skipping serves.
func BenchmarkAblationRaycaster(b *testing.B) {
	g := volume.Generate(volume.Supernova, 48, 48, 48)
	cam := raycast.NewCamera(0.6, 0.3, 2.4)
	tf := raycast.PresetTF("supernova")
	var slabs []*raycast.Brick
	for _, box := range volume.BrickZ(g.Dims, 3) {
		slabs = append(slabs, raycast.MakeBrick(g, box))
	}
	for _, size := range []int{64, 128, 256} {
		for _, parallel := range []bool{false, true} {
			name := fmt.Sprintf("%dpx/seq", size)
			if parallel {
				name = fmt.Sprintf("%dpx/par", size)
			}
			opt := raycast.Options{Width: size, Height: size, Parallel: parallel}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					raycast.RenderFull(g, cam, tf, opt)
				}
			})
			b.Run(name+"/resident", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, s := range slabs {
						raycast.RenderBrick(s, cam, tf, opt)
					}
				}
			})
		}
	}
}

// BenchmarkLiveServiceFrame measures an end-to-end frame through the live
// in-process service (schedule → three workers ray-cast and pixel-encode →
// head decodes, composites direct-send and PNG-encodes → client decodes),
// warm caches — the "hit" row of Fig. 2 on real hardware. Codec state and
// frame images are recycled (DESIGN.md §5.14), so a 128×128 frame costs
// about 206 KB and 205 allocs/op, much of it the client's own PNG decode.
// On the 2-vCPU reference host it is ≈9 ms/op (≈16 ms before the
// ray-caster skipped empty space, DESIGN.md §5.15). Ray-casting is still
// the largest part — three ≈2 ms brick renders on two cores — ahead of the
// pixel codec, the PNG and the wait for a scheduling cycle.
func BenchmarkLiveServiceFrame(b *testing.B) {
	dir := b.TempDir()
	g := volume.Generate(volume.Supernova, 48, 48, 48)
	m, err := service.WriteDataset(filepath.Join(dir, "nova"), "nova", g, 3, "supernova")
	if err != nil {
		b.Fatal(err)
	}
	cat := service.NewCatalog()
	if err := cat.Add(m); err != nil {
		b.Fatal(err)
	}
	cl, err := service.StartCluster(core.NewLocalityScheduler(2*units.Millisecond), cat, 3, 128*units.MB)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Stop()
	client := cl.Connect()
	defer client.Close()
	req := service.RenderBody{Dataset: "nova", Angle: 0.6, Elevation: 0.3, Dist: 2.4, Width: 128, Height: 128}
	if _, err := client.Render(req); err != nil { // warm caches
		b.Fatal(err)
	}
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Render(req); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "frames/s")
}

// BenchmarkSchedulerThroughput is a pure scheduler micro-benchmark: jobs
// scheduled per second through Algorithm 1 at growing queue depths —
// evidence for the paper's claim that scheduling stays far cheaper than
// rendering. The queue-N arms time a cold scheduler's first cycle over
// interactive jobs; batch-256 times one scheduler cycling over a full batch
// window of 4-brick jobs on 4 datasets whose tasks are all pending again
// every cycle, so H_B is rebuilt: a cycle groups a thousand tasks into 16
// chunk groups and places one task per node before λ. batch-window times
// the extension sweeps' steady state over the same shape: the window stays
// full, a fresh job for each finished one, and a cycle appends only the
// new jobs' tasks to the H_B it carries. warm-64 times Scenario 3's steady
// state: 64 nodes holding all 32 datasets' 512 chunks, and a cycle of 64
// interactive 16-brick jobs whose 512 chunk groups each go to the
// earliest-finishing node, every one a hit.
func BenchmarkSchedulerThroughput(b *testing.B) {
	// cycles times one scheduler cycling over the same queue, its tasks
	// pending again (Remaining with them) and every node drained at the
	// start of each cycle.
	cycles := func(b *testing.B, sched *core.LocalityScheduler, head *core.HeadState, queue []*core.Job) {
		now := units.Time(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for _, job := range queue {
				for k := range job.Tasks {
					job.Tasks[k].State = core.TaskQueued
				}
				job.Remaining = int32(len(job.Tasks))
			}
			now = now.Add(3600 * units.Second) // every node has drained
			b.StartTimer()
			sched.Schedule(now, queue, head)
		}
	}
	b.Run("batch-256", func(b *testing.B) {
		b.ReportAllocs()
		sched := core.NewLocalityScheduler(0)
		head := core.NewHeadState(16, 8*units.GB, core.System2CostModel())
		cycles(b, sched, head, schedQueue(core.DefaultBatchWindow, core.Batch, 4, 4))
	})
	b.Run("batch-window", func(b *testing.B) {
		b.ReportAllocs()
		sched := core.NewLocalityScheduler(0)
		head := core.NewHeadState(16, 8*units.GB, core.System2CostModel())
		window := schedQueue(core.DefaultBatchWindow, core.Batch, 4, 4)
		next := len(window)
		now := units.Time(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			live := window[:0]
			for _, job := range window {
				if job.Remaining > 0 {
					live = append(live, job)
				}
			}
			for ; len(live) < core.DefaultBatchWindow; next++ {
				live = append(live, schedJob(next, core.Batch, 4, 4))
			}
			window = live
			now = now.Add(3600 * units.Second) // every node has drained
			b.StartTimer()
			for _, a := range sched.Schedule(now, window, head) {
				a.Task.Job.Remaining--
			}
		}
	})
	b.Run("warm-64", func(b *testing.B) {
		b.ReportAllocs()
		sched := core.NewLocalityScheduler(0)
		head := core.NewHeadState(64, 8*units.GB, core.System2CostModel())
		queue := schedQueue(64, core.Interactive, 32, 16)
		sched.Schedule(0, queue, head) // a cold cycle loads every chunk
		for _, job := range queue {
			for _, t := range job.Tasks {
				if head.ReplicaCount(t.Chunk) == 0 {
					b.Fatalf("chunk %v not resident after the warming cycle", t.Chunk)
				}
			}
		}
		cycles(b, sched, head, queue)
	})
	for _, depth := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("queue-%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sched := core.NewLocalityScheduler(0)
				head := core.NewHeadState(64, 8*units.GB, core.System2CostModel())
				queue := schedQueue(depth, core.Interactive, 32, 16)
				b.StartTimer()
				sched.Schedule(0, queue, head)
			}
		})
	}
}

// schedQueue builds depth jobs of one class, job j rendering all chunks of
// dataset j mod datasets, 512 MB each.
func schedQueue(depth int, class core.Class, datasets, chunks int) []*core.Job {
	queue := make([]*core.Job, depth)
	for j := range queue {
		queue[j] = schedJob(j, class, datasets, chunks)
	}
	return queue
}

// schedJob builds schedQueue's job j.
func schedJob(j int, class core.Class, datasets, chunks int) *core.Job {
	job := &core.Job{ID: core.JobID(j + 1), Class: class,
		Action: core.ActionID(j + 1), Dataset: volume.DatasetID(j%datasets + 1)}
	job.Tasks = make([]core.Task, chunks)
	for k := range job.Tasks {
		job.Tasks[k] = core.Task{Job: job, Index: k,
			Chunk: volume.ChunkID{Dataset: job.Dataset, Index: k}, Size: 512 * units.MB}
	}
	job.Remaining = int32(chunks)
	return job
}

// BenchmarkDESKernel measures the raw discrete-event kernel under the
// access patterns the simulator produces: a steady self-perpetuating event
// chain (the node loops), a cancel-heavy mix (timeout timers that almost
// always cancel, exercising lazy removal plus reaping) and a workload's
// known arrivals queued up front or streamed. With the slab/free-list
// queue, steady state and the stream must report ~0 allocs/op.
func BenchmarkDESKernel(b *testing.B) {
	b.Run("steady-chain", func(b *testing.B) {
		b.ReportAllocs()
		s := des.New()
		n := 0
		var step des.Event
		step = func(sim *des.Simulator) {
			n++
			if n < b.N {
				sim.After(units.Microsecond, step)
			}
		}
		start := time.Now()
		s.After(units.Microsecond, step)
		s.Run(0)
		b.ReportMetric(float64(n)/time.Since(start).Seconds(), "events/s")
	})
	b.Run("cancel-heavy", func(b *testing.B) {
		b.ReportAllocs()
		s := des.New()
		n := 0
		var step des.Event
		step = func(sim *des.Simulator) {
			n++
			// Arm a far-future timeout and a near event; cancel the timeout
			// as the common case (the engine's load/failure timers).
			tmo := sim.After(units.Second, func(*des.Simulator) {})
			if n < b.N {
				sim.After(units.Microsecond, step)
			}
			tmo.Cancel()
		}
		start := time.Now()
		s.After(units.Microsecond, step)
		s.Run(0)
		b.ReportMetric(float64(n)/time.Since(start).Seconds(), "events/s")
	})
	// A workload's arrivals: rounds of 10k known arrivals, one a microsecond,
	// alongside the steady chain; an op is one arrival. upfront queues each
	// with its own At and closure; stream queues a round as one des.Stream,
	// so the heap holds two events, not 10k.
	b.Run("arrivals", func(b *testing.B) {
		const round = 10_000
		for _, stream := range []bool{false, true} {
			name := "upfront"
			if stream {
				name = "stream"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				s := des.New()
				left := 0
				arrive := func(*des.Simulator, int) { left-- }
				var step des.Event
				step = func(sim *des.Simulator) {
					if left > 0 {
						sim.After(units.Microsecond, step)
					}
				}
				start := time.Now()
				for done := 0; done < b.N; done += round {
					m := min(round, b.N-done)
					base := s.Now()
					at := func(i int) units.Time { return base.Add(units.Duration(i) * units.Microsecond) }
					left = m
					if stream {
						s.Stream(m, at, arrive)
					} else {
						for i := 0; i < m; i++ {
							i := i
							s.At(at(i), func(sim *des.Simulator) { arrive(sim, i) })
						}
					}
					s.After(0, step)
					s.Run(0)
				}
				b.ReportMetric(float64(s.Fired())/time.Since(start).Seconds(), "events/s")
			})
		}
	})
}

// BenchmarkAblationTimeSeries compares batch animation (many frames of one
// dataset) against time-varying sweeps (one frame per timestep dataset) —
// the paper's "visualizing time-varying data" use case, which is the worst
// case for locality because every frame needs different chunks.
func BenchmarkAblationTimeSeries(b *testing.B) {
	for _, timeSeries := range []bool{false, true} {
		name := "animation"
		if timeSeries {
			name = "time-series"
		}
		b.Run(name, func(b *testing.B) {
			var rep *metrics.Report
			for i := 0; i < b.N; i++ {
				lib := volume.NewLibrary()
				for d := 1; d <= 12; d++ {
					lib.Add(volume.NewDataset(volume.DatasetID(d), fmt.Sprintf("t%02d", d),
						2*units.GB, volume.MaxChunk{Chkmax: 512 * units.MB}))
				}
				eng := sim.New(sim.Config{
					Nodes:     8,
					MemQuota:  2 * units.GB,
					Model:     core.System1CostModel(),
					Scheduler: core.NewLocalityScheduler(0),
					Library:   lib,
					Jitter:    experiments.Jitter,
					Seed:      3,
					Preload:   true,
				})
				wl := workload.Generate(workload.Spec{
					Length:            units.Time(20 * units.Second),
					Datasets:          12,
					ContinuousActions: 2,
					TargetBatch:       200,
					BatchFramesMin:    50, BatchFramesMax: 50,
					BatchTimeSeries: timeSeries,
					Seed:            9,
				})
				rep = eng.Run(wl, 0)
			}
			reportScenario(b, rep)
			b.ReportMetric(float64(rep.Batch.Completed), "batch_done")
			b.ReportMetric(float64(rep.Loads), "loads")
		})
	}
}
