// Command vizbench regenerates every table and figure of the paper's
// evaluation section in one run: Fig. 2 (pipeline costs), Table II (scenario
// configurations), Figs. 4–7 (per-scheduler scenario results), Table III
// (hit rates and scheduling costs), Fig. 8 (scheduling cost vs user
// actions), and Fig. 9 (OURS vs dataset count) — and the extension sweeps of
// experiments.Sweeps, each printed as a table under its CSV column names.
//
// Usage:
//
//	vizbench                  # everything at full scale (minutes)
//	vizbench -scale 0.1       # everything, 10% workload scale (seconds)
//	vizbench -only fig4,table3
//	vizbench -parallel 1      # sequential: reference scheduling-cost numbers
//
// All simulation runs are independent, so -parallel N (default: one worker
// per CPU) executes them concurrently. Virtual-time results — framerates,
// latencies, hit rates — are bit-identical at any worker count; only the
// wall-clock scheduling-cost columns (Table III, Figs. 8–9) can shift under
// CPU contention, so record reference cost numbers with -parallel 1. See
// EXPERIMENTS.md.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"vizsched/internal/experiments"
	"vizsched/internal/workload"
)

// paperKeys are the -only names of the paper's figures and tables; the
// extension sweeps are named by experiments.Sweeps.
var paperKeys = []string{"fig2", "table2", "fig4", "fig5", "fig6", "fig7", "table3", "fig8", "fig9"}

// validKeys lists every name -only accepts.
func validKeys() []string {
	keys := append([]string{"all"}, paperKeys...)
	for _, s := range experiments.Sweeps {
		keys = append(keys, s.Name)
	}
	return keys
}

// parseOnly reads -only's comma-separated names, trimmed and lowercased,
// and refuses one that names nothing.
func parseOnly(only string) (map[string]bool, error) {
	valid := validKeys()
	want := map[string]bool{}
	for _, k := range strings.Split(only, ",") {
		k = strings.TrimSpace(strings.ToLower(k))
		if !slices.Contains(valid, k) {
			return nil, fmt.Errorf("-only: unknown name %q (valid: %s)", k, strings.Join(valid, ", "))
		}
		want[k] = true
	}
	return want, nil
}

// fail reports err and exits with code.
func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, "vizbench:", err)
	os.Exit(code)
}

func main() {
	scale := flag.Float64("scale", 1.0, "workload scale in (0,1]")
	only := flag.String("only", "all", "comma-separated subset of: "+strings.Join(validKeys(), ", "))
	csvDir := flag.String("csvdir", "", "also write per-figure CSV files into this directory")
	parallel := flag.Int("parallel", experiments.DefaultWorkers(),
		"max concurrent simulation runs; 1 = sequential (reference scheduling-cost numbers)")
	flag.Parse()

	want, err := parseOnly(*only)
	if err != nil {
		fail(2, err)
	}
	has := func(k string) bool { return want["all"] || want[k] }

	workers := *parallel
	if workers < 1 {
		workers = 1
	}
	if workers > 1 {
		fmt.Fprintf(os.Stderr, "vizbench: running up to %d simulations concurrently; "+
			"wall-clock scheduling-cost columns may reflect CPU contention (use -parallel 1 for reference numbers)\n", workers)
	}

	writeCSV := func(name string, write func(io.Writer) error) {
		if *csvDir == "" {
			return
		}
		err := os.MkdirAll(*csvDir, 0o755)
		var f *os.File
		if err == nil {
			f, err = os.Create(filepath.Join(*csvDir, name))
		}
		if err == nil {
			err = errors.Join(write(f), f.Close())
		}
		if err != nil {
			fail(1, err)
		}
	}

	start := time.Now()
	out := os.Stdout
	if has("fig2") {
		experiments.WriteFig2(out)
	}
	if has("table2") {
		experiments.WriteTableII(out, *scale)
	}

	scenarioFig := map[workload.ScenarioID]string{
		workload.Scenario1: "fig4", workload.Scenario2: "fig5",
		workload.Scenario3: "fig6", workload.Scenario4: "fig7",
	}
	needTable3 := has("table3")
	var ids []workload.ScenarioID
	for id := workload.Scenario1; id <= workload.Scenario4; id++ {
		if has(scenarioFig[id]) || needTable3 {
			ids = append(ids, id)
		}
	}
	// Compute every requested (scenario, scheduler) cell first — concurrently
	// when workers > 1 — then print in canonical order, so the output matches
	// a sequential run byte for byte.
	results := experiments.RunScenarios(ids, *scale, workers)
	for _, id := range ids {
		experiments.PrintScenario(out, id, *scale, results[id])
		writeCSV(scenarioFig[id]+".csv", func(w io.Writer) error {
			return experiments.ScenarioCSV(w, id, results[id])
		})
	}
	if needTable3 {
		experiments.WriteTableIII(out, results)
	}
	seconds := max(int(10**scale), 2)
	if has("fig8") {
		points := experiments.Fig8ActionSweepN([]int{1, 8, 32, 64, 128}, seconds, workers)
		experiments.PrintFig8(out, points)
		writeCSV("fig8.csv", func(w io.Writer) error { return experiments.Fig8CSV(w, points) })
	}
	if has("fig9") {
		points := experiments.Fig9DatasetSweepN([]int{2, 8, 16, 24, 32}, seconds, workers)
		experiments.PrintFig9(out, points)
		writeCSV("fig9.csv", func(w io.Writer) error { return experiments.Fig9CSV(w, points) })
	}
	for _, s := range experiments.Sweeps {
		if has(s.Name) {
			t := s.Run(*scale, workers)
			if err := t.WriteText(out); err != nil {
				fail(1, err)
			}
			writeCSV(s.Name+".csv", t.WriteCSV)
		}
	}
	fmt.Fprintf(out, "done. (%v, -parallel %d)\n", time.Since(start).Round(time.Millisecond), workers)
}
