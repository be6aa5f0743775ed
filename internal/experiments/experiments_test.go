package experiments

import (
	"bytes"
	"strings"
	"testing"

	"vizsched/internal/core"
	"vizsched/internal/metrics"
	"vizsched/internal/units"
	"vizsched/internal/workload"
)

func TestSchedulersRoster(t *testing.T) {
	want := []string{"FS", "SF", "FCFS", "FCFSU", "FCFSL", "OURS"}
	got := Schedulers()
	if len(got) != len(want) {
		t.Fatalf("roster size = %d", len(got))
	}
	for i, s := range got {
		if s.Name() != want[i] {
			t.Errorf("roster[%d] = %q, want %q", i, s.Name(), want[i])
		}
	}
}

func TestSchedulerByName(t *testing.T) {
	s, err := SchedulerByName("OURS")
	if err != nil || s.Name() != "OURS" {
		t.Errorf("lookup failed: %v", err)
	}
	if _, err := SchedulerByName("NOPE"); err == nil {
		t.Error("unknown scheduler did not error")
	}
	// Fresh instances, not shared state.
	a, _ := SchedulerByName("FS")
	b, _ := SchedulerByName("FS")
	if a == b {
		t.Error("SchedulerByName returned a shared instance")
	}
}

func TestFig2PipelineShape(t *testing.T) {
	rows := Fig2Pipeline(core.System1CostModel(), 512*units.MB, 16)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The defining property: disk I/O dwarfs every other stage.
	disk := rows[0].Time
	for _, r := range rows[1:] {
		if disk < 10*r.Time {
			t.Errorf("disk (%v) does not dominate %s (%v)", disk, r.Stage, r.Time)
		}
	}
}

func TestWriteFig2(t *testing.T) {
	var buf bytes.Buffer
	WriteFig2(&buf)
	out := buf.String()
	for _, want := range []string{"System 1", "System 2", "ray casting", "tio dominates"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig2 output missing %q", want)
		}
	}
}

func TestWriteTableII(t *testing.T) {
	var buf bytes.Buffer
	WriteTableII(&buf, 1)
	out := buf.String()
	for _, want := range []string{"12006", "21011", "160633", "388481", "512GB", "1TB"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table II output missing %q", want)
		}
	}
}

// The headline result at reduced scale: OURS beats every locality-blind
// scheduler on framerate in scenario 1, and FCFSU sits in between.
func TestScenario1ShapeSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run")
	}
	reports := RunScenarios([]workload.ScenarioID{workload.Scenario1}, 0.1, 1)[workload.Scenario1]
	var buf bytes.Buffer
	PrintScenario(&buf, workload.Scenario1, 0.1, reports)
	get := func(name string) *metrics.Report {
		for _, r := range reports {
			if r.Scheduler == name {
				return r
			}
		}
		t.Fatalf("missing %s", name)
		return nil
	}
	ours := get("OURS").MeanFramerate()
	fcfsl := get("FCFSL").MeanFramerate()
	fcfsu := get("FCFSU").MeanFramerate()
	for _, blind := range []string{"FS", "SF", "FCFS"} {
		if f := get(blind).MeanFramerate(); f >= fcfsu {
			t.Errorf("%s fps %.2f not below FCFSU %.2f", blind, f, fcfsu)
		}
	}
	if ours < 30 {
		t.Errorf("OURS fps = %.2f, want ≈33", ours)
	}
	if fcfsu >= fcfsl {
		t.Errorf("FCFSU %.2f should trail FCFSL %.2f in scenario 1", fcfsu, fcfsl)
	}
	// Table III shape: OURS and FCFSU near-perfect reuse.
	if hr := get("OURS").HitRate(); hr < 0.99 {
		t.Errorf("OURS hit rate = %.4f", hr)
	}
	if hr := get("FCFSU").HitRate(); hr < 0.99 {
		t.Errorf("FCFSU hit rate = %.4f", hr)
	}
	if !strings.Contains(buf.String(), "Fig 4") {
		t.Error("missing figure header")
	}
}

func TestWriteTableIIIFormatting(t *testing.T) {
	results := map[workload.ScenarioID][]*metrics.Report{
		workload.Scenario1: {
			metrics.NewReport("FS", 8), metrics.NewReport("SF", 8),
			metrics.NewReport("FCFS", 8), metrics.NewReport("FCFSU", 8),
			metrics.NewReport("FCFSL", 8), metrics.NewReport("OURS", 8),
		},
	}
	var buf bytes.Buffer
	WriteTableIII(&buf, results)
	if !strings.Contains(buf.String(), "hit rate") || !strings.Contains(buf.String(), "avg cost") {
		t.Error("Table III rows missing")
	}
}

func TestFig8SweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep run")
	}
	points := Fig8ActionSweepN([]int{1, 4}, 2, 1)
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		for _, name := range []string{"FCFSU", "FCFSL", "OURS"} {
			if p.Cost[name] <= 0 {
				t.Errorf("actions=%d %s cost = %v", p.Actions, name, p.Cost[name])
			}
		}
	}
}

func TestFig9SweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep run")
	}
	points := Fig9DatasetSweepN([]int{2, 8}, 3, 1)
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.Framerate <= 0 || p.Cost <= 0 {
			t.Errorf("datasets=%d: fps=%.2f cost=%v", p.Datasets, p.Framerate, p.Cost)
		}
	}
}
