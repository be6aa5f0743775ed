package vizsched

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"vizsched/internal/experiments"
	"vizsched/internal/sim"
	"vizsched/internal/trace"
	"vizsched/internal/workload"
)

const pinsFile = "testdata/paper_pins.txt"

// schedCost matches a table line's "sched=" column, the one wall-clock
// figure in an otherwise virtual-time table.
var schedCost = regexp.MustCompile(`sched=\s*\S+/job`)

// TestPaperTablesAndTracesMatchPins holds the simulator's fixed points to
// the sha256 in testdata/paper_pins.txt: vizsim's scale-0.1 table (every
// scheduler, the sched= column masked) on Scenarios 1–4, and the -trace CSV
// bytes of Scenarios 1 and 3 under OURS — plain, with -qos -tenants 4 -skew
// 1.5, and with -faults at a rate where chaos fires (30 on Scenario 1,
// where 2 faults per minute draw none in its 6 s; 2 on Scenario 3). Each
// run is configured through experiments.ScenarioRun, as cmd/vizsim
// configures it, and a variant whose trace equals its plain run's fails:
// it would pin nothing the plain run does not. -prefetch is not pinned: it
// issues no warm on any paper scenario, and the prefetch sweep's pin
// (TestSweepTablesMatchBenchPins) holds the prefetch path. A pin moves only
// under the fixed-point rule: the change that moves it edits the line and
// says why. The test skips where hostFloatsReproduce does not hold.
func TestPaperTablesAndTracesMatchPins(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs the paper's scenarios at scale 0.1")
	}
	if !hostFloatsReproduce() {
		t.Skip("this host's math.Exp/math.Pow do not reproduce the recorded bits; the pins cannot hold here")
	}
	plain := experiments.ScenarioRun{Jitter: experiments.Jitter, Replicas: 1} // vizsim's defaults
	qos := plain
	qos.Tenants, qos.Skew, qos.QoS = 4, 1.5, true
	faults := func(rate float64) experiments.ScenarioRun {
		r := plain
		r.Faults = rate
		return r
	}
	type pinRun struct {
		name string
		run  func() string
	}
	var runs []pinRun
	for s := 1; s <= 4; s++ {
		runs = append(runs, pinRun{fmt.Sprintf("table/scenario%d", s), func() string { return pinTable(plain, s) }})
	}
	traces := []struct {
		variant  string
		scenario int
		run      experiments.ScenarioRun
	}{
		{"plain", 1, plain}, {"qos", 1, qos}, {"faults30", 1, faults(30)},
		{"plain", 3, plain}, {"qos", 3, qos}, {"faults2", 3, faults(2)},
	}
	for _, tr := range traces {
		runs = append(runs, pinRun{fmt.Sprintf("trace/scenario%d/%s", tr.scenario, tr.variant),
			func() string { return pinTrace(tr.run, tr.scenario) }})
	}
	got := make(map[string]string, len(runs))
	sums := make([]string, len(runs))
	experiments.ForEach(experiments.DefaultWorkers(), len(runs), func(i int) { sums[i] = runs[i].run() })
	for i, r := range runs {
		got[r.name] = sums[i]
	}

	want := readPins(t)
	if len(want) != len(runs) {
		t.Errorf("%s pins %d runs, the test makes %d", pinsFile, len(want), len(runs))
	}
	for _, r := range runs {
		if w, ok := want[r.name]; !ok {
			t.Errorf("%s: no pin", r.name)
		} else if got[r.name] != w {
			t.Errorf("%s: sha256 %s, pinned %s", r.name, got[r.name], w)
		}
	}
	for _, tr := range traces {
		name := fmt.Sprintf("trace/scenario%d/%s", tr.scenario, tr.variant)
		if tr.variant != "plain" && got[name] == got[fmt.Sprintf("trace/scenario%d/plain", tr.scenario)] {
			t.Errorf("%s: the trace equals the plain run's; the variant changes nothing", name)
		}
	}
}

func readPins(t *testing.T) map[string]string {
	f, err := os.Open(pinsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pins := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: bad line %q", pinsFile, line)
		}
		pins[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return pins
}

// pinTable is vizsim -scenario s -scale 0.1 -sched all's report lines
// under run r, the sched= column masked, hashed.
func pinTable(r experiments.ScenarioRun, s int) string {
	cfg := r.Scenario(workload.ScenarioID(s), 0.1)
	wl := workload.Generate(cfg.Spec)
	h := sha256.New()
	for _, sched := range experiments.Schedulers() {
		rep := sim.New(r.Config(cfg, wl, sched)).Run(wl, 0)
		fmt.Fprintln(h, schedCost.ReplaceAllString(rep.String(), "sched=-"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinTrace is the sha256 of vizsim -scenario s -scale 0.1 -sched OURS
// -trace's CSV under run r.
func pinTrace(r experiments.ScenarioRun, s int) string {
	cfg := r.Scenario(workload.ScenarioID(s), 0.1)
	wl := workload.Generate(cfg.Spec)
	ours, err := experiments.SchedulerByName("OURS")
	if err != nil {
		panic(err)
	}
	ecfg := r.Config(cfg, wl, ours)
	tl := trace.New(experiments.TraceCap)
	ecfg.Trace = tl
	sim.New(ecfg).Run(wl, 0)
	if tl.Dropped > 0 {
		panic(fmt.Sprintf("trace of scenario %d capped", s))
	}
	h := sha256.New()
	if err := tl.WriteCSV(h); err != nil {
		panic(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}
