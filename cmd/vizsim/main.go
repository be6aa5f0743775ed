// Command vizsim runs one of the paper's four scenarios (Table II) under one
// or all scheduling policies on the discrete-event cluster simulator and
// prints the resulting metrics — one bar group of Figs. 4–7 per line.
//
// Usage:
//
//	vizsim -scenario 1 -sched OURS
//	vizsim -scenario 4 -sched all -scale 0.1
//
// With -sched all the per-scheduler runs are independent and execute
// concurrently (-parallel, default one worker per CPU); results print in
// the canonical scheduler order either way, and all virtual-time metrics
// are identical to a sequential run. Wall-clock scheduling costs can shift
// under contention — use -parallel 1 for reference numbers.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"vizsched/internal/experiments"
	"vizsched/internal/metrics"
	"vizsched/internal/sim"
	"vizsched/internal/trace"
	"vizsched/internal/units"
	"vizsched/internal/workload"
)

func main() {
	scenario := flag.Int("scenario", 1, "scenario 1-4 (Table II)")
	sched := flag.String("sched", "all", "scheduler: FS, SF, FCFS, FCFSU, FCFSL, OURS, or all")
	scale := flag.Float64("scale", 1.0, "workload scale in (0,1]: shrinks run length and job counts")
	jitter := flag.Float64("jitter", experiments.Jitter, "execution-time noise fraction")
	traceCSV := flag.String("trace", "", "write an event trace CSV to this path (single -sched only)")
	ganttSVG := flag.String("gantt", "", "write a node-occupancy Gantt SVG to this path (single -sched only)")
	ganttSeconds := flag.Float64("gantt-window", 5, "Gantt time window in seconds from the start")
	verbose := flag.Bool("v", false, "print latency histograms, and wall time, peak RSS, allocated bytes and final live heap on stderr")
	saveWL := flag.String("save-workload", "", "save the generated workload to this file and exit")
	loadWL := flag.String("load-workload", "", "replay a workload saved with -save-workload")
	faults := flag.Float64("faults", 0,
		"inject a chaos fault mix (crash/slowdisk/stall/flap) at this rate in faults per simulated minute")
	replicas := flag.Int("replicas", 1,
		"replication degree k for OURS: keep hot chunks resident on k nodes and re-home on crash; 1 = paper behaviour")
	parallel := flag.Int("parallel", experiments.DefaultWorkers(),
		"max concurrent runs with -sched all; 1 = sequential (reference scheduling-cost numbers)")
	useQoS := flag.Bool("qos", false,
		"enable the QoS subsystem: per-tenant admission control, DRR fair queuing, SLO-driven degradation")
	tenants := flag.Int("tenants", 0, "spread users over this many tenants (0: single default tenant)")
	tenantSkew := flag.Float64("skew", 0, "Zipf exponent for tenant demand skew with -tenants; 0 = uniform")
	flag.Parse()
	// held keeps the last single-scheduler run's engine alive until the cost
	// line's final collection, so its live heap is the run's end state.
	var held *sim.Engine
	if *verbose {
		start := time.Now()
		defer func() { printCost(start, held) }()
	}

	if *scenario < 1 || *scenario > 4 {
		fmt.Fprintln(os.Stderr, "vizsim: -scenario must be 1-4")
		os.Exit(2)
	}
	sr := experiments.ScenarioRun{
		Tenants: *tenants, Skew: *tenantSkew, Jitter: *jitter,
		Faults: *faults, Replicas: *replicas, QoS: *useQoS,
	}
	cfg := sr.Scenario(workload.ScenarioID(*scenario), *scale)
	wl := workload.Generate(cfg.Spec)
	if *loadWL != "" {
		loaded, err := workload.LoadScheduleFile(*loadWL)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vizsim:", err)
			os.Exit(1)
		}
		wl = loaded
	}
	fmt.Printf("scenario %d: %d nodes, %v memory, %d×%v datasets, %.0fs, %d interactive + %d batch jobs\n",
		cfg.ID, cfg.Nodes, cfg.TotalMemory(), cfg.DatasetCount, cfg.DatasetSize,
		wl.Length.Seconds(), wl.InteractiveCount(), wl.BatchCount())
	if *saveWL != "" {
		if err := wl.SaveFile(*saveWL); err != nil {
			fmt.Fprintln(os.Stderr, "vizsim:", err)
			os.Exit(1)
		}
		fmt.Printf("saved workload to %s\n", *saveWL)
		return
	}

	printRecovery := func(rep *metrics.Report) {
		if *faults <= 0 {
			return
		}
		depth, below := rep.Recovery.FramerateDip(experiments.TargetFPS)
		fmt.Printf("       recovery: faults=%d redispatched=%d MTTR=%v dip-depth=%.2ffps dip-time=%v\n",
			rep.Recovery.Faults, rep.Recovery.TasksRedispatched,
			rep.Recovery.MTTR().Std().Round(time.Millisecond), depth, below.Std())
		if rep.Recovery.ChunksRehomed+rep.Recovery.ChunksReseeded > 0 {
			fmt.Printf("       replication: rehomed=%d reseeded=%d svc-MTTR=%v\n",
				rep.Recovery.ChunksRehomed, rep.Recovery.ChunksReseeded,
				rep.Recovery.ServiceMTTR().Std().Round(time.Millisecond))
		}
	}
	printQoS := func(rep *metrics.Report) {
		if rep.QoS == nil {
			return
		}
		q := rep.QoS
		fmt.Printf("       qos: admitted=%d throttled=%d rejected=%d shed=%d peak-level=%d final-level=%d jain=%.3f\n",
			q.Admitted, q.Throttled, q.Rejected, q.Shed, q.MaxLevel, q.FinalLevel, rep.JainFairness())
	}

	run := func(name string) error {
		s, err := experiments.SchedulerByName(name)
		if err != nil {
			return err
		}
		ecfg := sr.Config(cfg, wl, s)
		var tl *trace.Log
		if (*traceCSV != "" || *ganttSVG != "") && *sched != "all" {
			tl = trace.New(experiments.TraceCap)
			ecfg.Trace = tl
		}
		held = sim.New(ecfg)
		rep := held.Run(wl, 0)
		fmt.Println(rep)
		printRecovery(rep)
		printQoS(rep)
		if *verbose {
			fmt.Printf("interactive latency distribution:\n%s", rep.Interactive.LatencyHist.Render(12))
		}
		if tl != nil {
			if tl.Dropped > 0 {
				fmt.Fprintf(os.Stderr, "vizsim: trace capped, %d events dropped\n", tl.Dropped)
			}
			if *traceCSV != "" {
				f, err := os.Create(*traceCSV)
				if err != nil {
					return err
				}
				if err := tl.WriteCSV(f); err != nil {
					f.Close()
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
				fmt.Printf("wrote %s (%d events)\n", *traceCSV, tl.Len())
			}
			if *ganttSVG != "" {
				f, err := os.Create(*ganttSVG)
				if err != nil {
					return err
				}
				to := units.Time(*ganttSeconds * float64(units.Second))
				if err := tl.GanttSVG(f, cfg.Nodes, 0, to); err != nil {
					f.Close()
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", *ganttSVG)
			}
		}
		return nil
	}
	if *sched == "all" {
		workers := *parallel
		if workers < 1 {
			workers = 1
		}
		// Each scheduler gets a fresh engine; the workload schedule is
		// read-only during Engine.Run, so sharing wl across runs is safe.
		// Compute concurrently, then print in canonical order.
		scheds := experiments.Schedulers()
		reports := make([]*metrics.Report, len(scheds))
		experiments.ForEach(workers, len(scheds), func(i int) {
			reports[i] = sim.New(sr.Config(cfg, wl, scheds[i])).Run(wl, 0)
		})
		for _, rep := range reports {
			fmt.Println(rep)
			printRecovery(rep)
			printQoS(rep)
			if *verbose {
				fmt.Printf("interactive latency distribution:\n%s", rep.Interactive.LatencyHist.Render(12))
			}
		}
		return
	}
	if err := run(*sched); err != nil {
		fmt.Fprintln(os.Stderr, "vizsim:", err)
		os.Exit(1)
	}
}

// printCost writes to stderr, leaving stdout's bytes as they are, the wall
// time since start, the peak resident set, the bytes allocated over the
// run, and the heap still live after a final collection with eng (nil
// after -sched all) held. The last two are counts the Go runtime keeps, so
// unlike the resident set they do not move with when the collector happened
// to run.
func printCost(start time.Time, eng *sim.Engine) {
	wall := time.Since(start).Round(time.Millisecond)
	rss := peakRSS()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(eng)
	fmt.Fprintf(os.Stderr, "vizsim: wall %v, peak RSS %d MB, allocated %d MB, live heap after GC %d MB\n",
		wall, rss>>20, ms.TotalAlloc>>20, ms.HeapAlloc>>20)
}
