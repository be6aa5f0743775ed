// Command bench is the repository's benchmark: six named workloads over the
// live frame path and the simulator, end-to-end metrics with tracing off,
// per-layer metrics from a traced run, and correctness gates on every run.
// BENCHMARK.json at the repository root describes it; README.md in this
// directory explains the workloads and the metrics.
//
//	bash bench/run.sh --workload live_orbit_pipe --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh                       # all six workloads, end-to-end metrics
//	bash bench/run.sh --trace 1             # all six, per-layer metrics + trace files
//	bash bench/run.sh --repeat 10           # spread of each metric over ten seeds, against its bound
//
// Each run prints progress and an environment block on standard error and, as
// the last line of standard output, one JSON object
// {"correct", "attempted", "failed", "metrics"}. The exit code is 0 when the
// run's outputs were correct, 1 when a correctness gate failed (the result is
// still printed), and 2 when the run could not be made.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"vizsched/internal/workload"
)

const (
	defaultSeed          = 1
	defaultScenarioScale = 0.02
	defaultSweepScale    = 0.1
)

// options are one run's settings. The fields below traceDir exist so the
// smoke test can shrink the work; the command line cannot set them.
type options struct {
	seed     int64
	window   time.Duration
	trace    bool
	scratch  string // datasets are written here and removed after the run
	traceDir string

	quick         bool // set up once, not several times
	scenario      workload.ScenarioID
	scenarioScale float64
	sweepScale    float64
	sweeps        []sweep
}

// pinned reports whether the run does the work the pins in golden.json were
// recorded on.
func (o options) pinned() bool {
	return !o.quick && o.scenario == workload.Scenario3 && o.scenarioScale == defaultScenarioScale &&
		o.sweepScale == defaultSweepScale && len(o.sweeps) == len(allSweeps)
}

// moreSetups decides whether a run sets up once more. setup_s is the median
// of the set-ups: at least three, and while they are cheap, up to nine or
// half a second's worth, because a 50 ms set-up timed three times is not
// steady to a quarter.
func (o options) moreSetups(done []float64) bool {
	if o.quick {
		return len(done) < 1
	}
	return len(done) < 3 || (len(done) < 9 && sum(done) < 0.5)
}

// golden holds the pinned outputs. They were recorded on one machine and are
// enforced only on its like: Go's math.Exp takes an FMA path on CPUs that
// have one, so voxel values — and with them PNG and CSV bytes — can differ in
// the last bit between CPU models. Elsewhere the self-consistency gates
// (probe frame equal before and after, repetitions agree) still run.
type golden struct {
	GOARCH   string            `json:"goarch"`
	CPU      string            `json:"cpu"`
	Seed     int64             `json:"seed"`
	ProbePNG map[string]string `json:"probe_png_sha256"`
	SimS3    simFacts          `json:"sim_s3_ours"`
	SweepCSV map[string]string `json:"sweep_csv_sha256"`
}

//go:embed golden.json
var goldenJSON []byte

func (g *golden) enforced() bool { return g.GOARCH == runtime.GOARCH && g.CPU == cpuModel() }

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// clock is the reference-speed clock every reported duration is read from.
var clock *refClock

// workloadNames lists the six workloads in the order "all" runs them.
func workloadNames() []string {
	var names []string
	for _, s := range liveSpecs {
		names = append(names, s.name)
	}
	return append(names, "sim_s3_ours", "sim_sweeps")
}

// runWorkload dispatches on the workload's name. The name goes no further:
// the code under test sees only generated requests and schedules.
func runWorkload(name string, o options, gold *golden) (*result, error) {
	for _, s := range liveSpecs {
		if s.name == name {
			return runLive(s, o, gold)
		}
	}
	switch name {
	case "sim_s3_ours":
		return runSimScenario(o, gold)
	case "sim_sweeps":
		return runSimSweeps(o, gold)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
}

// printEnvironment writes the machine and settings a run's numbers belong to.
func printEnvironment(o options, names []string) {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	env := map[string]any{
		"go_version": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "cpu": cpuModel(),
		"commit": commit, "workloads": names, "seed": o.seed, "trace": o.trace,
		"window_s": o.window.Seconds(), "stretches": stretches,
		"discarded_frames": discardFrames, "omega_ms": omega.Seconds() * 1e3,
		"scenario3_scale": o.scenarioScale, "sweep_scale": o.sweepScale,
	}
	raw, _ := json.Marshal(env) // a map of strings and numbers always marshals
	fmt.Fprintf(os.Stderr, "env: %s\n", raw)
	if runtime.GOMAXPROCS(0) != runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "warning: GOMAXPROCS=%d but nproc=%d; the workloads are sized for GOMAXPROCS = nproc\n",
			runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
}

// benchmarkFile is the part of BENCHMARK.json the -repeat mode reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the three cut points Python's statistics.quantiles(xs,
// n=4) gives (its default "exclusive" method), which is what the driver that
// accepts this benchmark computes spreads with.
func quartiles(xs []float64) [3]float64 {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	n, m := len(xs), len(xs)+1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return q
}

// repeat runs each workload n times as a child process, each time with the
// next seed, and prints for every end-to-end metric the median and the
// spread (interquartile range ÷ median) beside the bound BENCHMARK.json gives
// it. It returns false when a run failed or a spread exceeds its bound;
// setup_s is shown but, as in the driver, only its median is held to a bound.
func repeat(names []string, n int, o options) (bool, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return false, fmt.Errorf("-repeat needs the bounds: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	ok := true
	for _, name := range names {
		values := make(map[string][]float64)
		for i := 0; i < n; i++ {
			cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(o.seed+int64(i)),
				"-seconds", fmt.Sprint(int(o.window.Seconds())), "-trace", "0")
			out, err := cmd.Output()
			if err != nil {
				return false, fmt.Errorf("%s seed %d: %w", name, o.seed+int64(i), err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return false, fmt.Errorf("%s seed %d: %w", name, o.seed+int64(i), err)
			}
			ok = ok && res.Correct
			for k, v := range res.Metrics {
				values[k] = append(values[k], v.Value)
			}
		}
		for _, e := range bf.EndToEnd {
			xs := values[e.Name]
			q := quartiles(xs)
			spread := (q[2] - q[0]) / q[1]
			verdict := "ok"
			if spread > e.Bound && e.Name != "setup_s" {
				verdict, ok = "SPREAD EXCEEDS BOUND", false
			}
			fmt.Printf("%-18s %-18s median %12.4f  spread %.4f  bound %.2f  %s\n",
				name, e.Name, q[1], spread, e.Bound, verdict)
		}
	}
	return ok, nil
}

func main() {
	workloads := flag.String("workload", "all", "workload name, comma-separated names, or all")
	seed := flag.Int64("seed", defaultSeed, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 12, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	reps := flag.Int("repeat", 0, "run each workload this many times on consecutive seeds and print spreads against bounds")
	flag.Parse()

	names := workloadNames()
	if *workloads != "all" {
		names = strings.Split(*workloads, ",")
	}
	o := options{
		seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		scratch: ".bench_build/scratch", traceDir: "bench/out",
		scenario:      workload.Scenario3,
		scenarioScale: defaultScenarioScale, sweepScale: defaultSweepScale, sweeps: allSweeps,
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1, -trace 0 or 1, and there are no positional arguments")
		os.Exit(2)
	}
	if *reps > 1 {
		ok, err := repeat(names, *reps, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	clock = startRefClock()
	defer clock.close()
	var gold golden
	if err := json.Unmarshal(goldenJSON, &gold); err != nil {
		fmt.Fprintln(os.Stderr, "bench: golden.json:", err)
		os.Exit(2)
	}
	printEnvironment(o, names)
	if !gold.enforced() {
		fmt.Fprintf(os.Stderr, "note: pins were recorded on %s %q; on this machine only the self-consistency gates run\n",
			gold.GOARCH, gold.CPU)
	}
	correct := true
	for _, name := range names {
		res, err := runWorkload(name, o, &gold)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		fmt.Printf("%s\n", line)
		correct = correct && res.Correct
	}
	if !correct {
		os.Exit(1)
	}
}
