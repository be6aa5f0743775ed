package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"

	"vizsched/internal/workload"
)

func TestMain(m *testing.M) {
	clock = startRefClock()
	code := m.Run()
	clock.close()
	os.Exit(code)
}

// benchmarkJSON is BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileMatchesProgram holds BENCHMARK.json and the program to the
// same workloads, metric names and units, in the same order.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	b := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	names := workloadNames()
	if len(b.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(names))
	}
	for i, w := range b.Workloads {
		if w.Name != names[i] || !name.MatchString(w.Name) {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, names[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	seen := make(map[string]bool)
	check := func(kind string, i int, gotName, gotUnit string, want metricDef) {
		if gotName != want.Name || gotUnit != want.Unit {
			t.Errorf("%s metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the program",
				kind, i, gotName, gotUnit, want.Name, want.Unit)
		}
		if !name.MatchString(gotName) || !unit.MatchString(gotUnit) {
			t.Errorf("%s metric %s [%s]: malformed name or unit", kind, gotName, gotUnit)
		}
		if seen[gotName] {
			t.Errorf("metric name %s is used twice", gotName)
		}
		seen[gotName] = true
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	setup := false
	for i, m := range b.EndToEnd {
		check("end_to_end", i, m.Name, m.Unit, endToEnd[i])
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s [s], lower is better")
	}
	for i, m := range b.PerLayer {
		check("per_layer", i, m.Name, m.Unit, perLayer[i])
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
}

// TestSmoke runs every workload, untraced and traced, at a fraction of its
// size: 300 ms windows, small volumes, Scenario 1 at scale 0.05 and the one
// closed-form sweep. Every run must be correct and print exactly the metrics
// of its mode; every end-to-end metric must be non-zero.
func TestSmoke(t *testing.T) {
	specs := []liveSpec{
		{name: "live_orbit_pipe", dim: 24, datasets: 1, chunks: 3, workers: 3, width: 32},
		{name: "live_fanout_tcp", dim: 16, datasets: 1, chunks: 8, workers: 4, width: 32, tcp: true},
		{name: "live_cold_sweep", dim: 24, datasets: 6, chunks: 2, workers: 2, width: 32, cold: true},
		{name: "live_mixed_batch", dim: 24, datasets: 3, chunks: 3, workers: 3, width: 32, batch: 8},
	}
	gold := &golden{GOARCH: "none"}
	for _, trace := range []bool{false, true} {
		o := options{
			seed: 7, window: 300 * time.Millisecond, trace: trace, quick: true,
			scratch: t.TempDir(), traceDir: t.TempDir(),
			scenario: workload.Scenario1, scenarioScale: 0.05,
			sweepScale: 0.05, sweeps: allSweeps[len(allSweeps)-1:],
		}
		runs := map[string]func() (*result, error){
			"sim_s3_ours": func() (*result, error) { return runSimScenario(o, gold) },
			"sim_sweeps":  func() (*result, error) { return runSimSweeps(o, gold) },
		}
		for _, s := range specs {
			runs[s.name] = func() (*result, error) { return runLive(s, o, gold) }
		}
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		for _, name := range workloadNames() {
			res, err := runs[name]()
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d",
					name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s [%s] missing or in unit %q", name, trace, d.Name, d.Unit, m.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", name, d.Name, m.Value)
				}
			}
			if trace && name[:4] == "live" {
				if _, err := os.Stat(o.traceDir + "/" + name + ".trace.jsonl"); err != nil {
					t.Errorf("%s: no trace file: %v", name, err)
				}
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
	got := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if want := [3]float64{1.75, 3.5, 5.25}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}
