package sim

import (
	"fmt"
	"math"
	"testing"

	"vizsched/internal/core"
	"vizsched/internal/units"
	"vizsched/internal/workload"
)

// scenarioCapacity is the closed-form steady-state load arithmetic of one
// Table II scenario under a Chkmax-decomposed locality-aware scheduler with
// warm caches: demand = actions × rate × tasks × per-task cost against node
// supply. The simulator measures what does happen; this oracle predicts what
// should, and TestCapacityPredictsSimulatedFramerate holds the two within
// tolerance of each other — a guard against silent model drift.
type scenarioCapacity struct {
	// TasksPerJob is m, the chunk count of one dataset.
	TasksPerJob int
	// InteractiveUtilization is interactive demand / cluster supply;
	// TotalUtilization includes batch demand.
	InteractiveUtilization, TotalUtilization float64
	// SustainableFPS is the per-action framerate the cluster can sustain:
	// the target when interactive utilization ≤ 1, else target scaled by
	// the overload factor.
	SustainableFPS float64
	// CacheableFraction is total memory / total data, capped at 1 — how
	// much of the working set can be resident at once.
	CacheableFraction float64
	// ReloadUtilization estimates the node time consumed by chunk reloads
	// when user actions start on non-resident datasets: action starts/s ×
	// (1 − cacheable) × m × tio / supply. This is what actually overloads
	// Scenario 4.
	ReloadUtilization float64
}

// overloaded reports whether steady-state demand (interactive + batch +
// reloads) exceeds the cluster.
func (c scenarioCapacity) overloaded() bool {
	return c.TotalUtilization+c.ReloadUtilization > 1
}

// analyzeScenario computes the capacity arithmetic for a Table II scenario,
// assuming the scenario's cost model and full cache warmth (the scheduler's
// job is to approach this bound; Figs. 4–7 measure how close each policy
// gets).
func analyzeScenario(cfg workload.ScenarioConfig) scenarioCapacity {
	model := core.System2CostModel()
	if cfg.System1 {
		model = core.System1CostModel()
	}
	m := int(units.CeilDiv(int64(cfg.DatasetSize), int64(cfg.Chkmax)))
	chunk := cfg.DatasetSize / units.Bytes(m)
	hit := model.HitExec(chunk, m)

	wl := workload.Generate(cfg.Spec)
	length := cfg.Spec.Length.Seconds()
	jobRate := float64(wl.InteractiveCount()) / length
	batchRate := float64(wl.BatchCount()) / length

	supply := float64(cfg.Nodes) // node-seconds per second
	intDemand := jobRate * float64(m) * hit.Seconds()
	batchDemand := batchRate * float64(m) * hit.Seconds()

	cacheable := float64(cfg.TotalMemory()) / float64(cfg.TotalData())
	if cacheable > 1 {
		cacheable = 1
	}
	actionsPerSec := float64(len(wl.Actions)) / length
	reloadDemand := actionsPerSec * (1 - cacheable) * float64(m) * model.IOTime(chunk).Seconds()

	target := 1 / (30e-3) // one request per 30 ms
	if p := cfg.Spec.Period; p > 0 {
		target = 1 / p.Seconds()
	}
	fps := target
	if u := (intDemand + reloadDemand) / supply; u > 1 {
		fps = target / u
	}

	return scenarioCapacity{
		TasksPerJob:            m,
		InteractiveUtilization: intDemand / supply,
		TotalUtilization:       (intDemand + batchDemand) / supply,
		SustainableFPS:         fps,
		CacheableFraction:      cacheable,
		ReloadUtilization:      reloadDemand / supply,
	}
}

func TestScenarioCapacityShapes(t *testing.T) {
	// The load arithmetic that shaped the paper's scenarios must hold.
	s1 := analyzeScenario(workload.Scenario(workload.Scenario1, 1))
	if s1.TasksPerJob != 4 {
		t.Errorf("scenario 1 m = %d, want 4", s1.TasksPerJob)
	}
	if s1.InteractiveUtilization <= 0.4 || s1.InteractiveUtilization >= 1 {
		t.Errorf("scenario 1 utilization = %.2f, want loaded but feasible", s1.InteractiveUtilization)
	}
	if math.Abs(s1.SustainableFPS-33.33) > 0.1 {
		t.Errorf("scenario 1 sustainable fps = %.2f", s1.SustainableFPS)
	}
	if s1.CacheableFraction != 1 {
		t.Errorf("scenario 1 cacheable = %.2f, want 1 (12GB on 16GB)", s1.CacheableFraction)
	}

	s2 := analyzeScenario(workload.Scenario(workload.Scenario2, 1))
	if s2.CacheableFraction >= 1 {
		t.Error("scenario 2 must exceed memory (that is its purpose)")
	}

	s3 := analyzeScenario(workload.Scenario(workload.Scenario3, 1))
	if s3.TasksPerJob != 16 {
		t.Errorf("scenario 3 m = %d, want 16", s3.TasksPerJob)
	}
	if s3.InteractiveUtilization >= 1 {
		t.Errorf("scenario 3 is 'light load': utilization = %.2f", s3.InteractiveUtilization)
	}

	s4 := analyzeScenario(workload.Scenario(workload.Scenario4, 1))
	if !s4.overloaded() {
		t.Errorf("scenario 4 is 'heavy load': util = %.2f + reload %.2f", s4.TotalUtilization, s4.ReloadUtilization)
	}
	if s4.SustainableFPS >= 33 {
		t.Errorf("scenario 4 sustainable fps = %.2f, must be capped by overload", s4.SustainableFPS)
	}
	// The capped prediction should land near the paper's 23 fps / our 17.
	if s4.SustainableFPS < 10 || s4.SustainableFPS > 30 {
		t.Errorf("scenario 4 sustainable fps = %.2f, want 10-30", s4.SustainableFPS)
	}
}

// The capacity arithmetic behind the paper's scenarios: Scenario 3 is
// feasible ("light load"); Scenario 4 is not ("heavy load").
func Example_analyzeScenario() {
	s3 := analyzeScenario(workload.Scenario(workload.Scenario3, 1))
	s4 := analyzeScenario(workload.Scenario(workload.Scenario4, 1))
	fmt.Printf("scenario 3 overloaded: %v\n", s3.overloaded())
	fmt.Printf("scenario 4 overloaded: %v\n", s4.overloaded())
	fmt.Printf("scenario 3 tasks/job: %d\n", s3.TasksPerJob)
	// Output:
	// scenario 3 overloaded: false
	// scenario 4 overloaded: true
	// scenario 3 tasks/job: 16
}

// The analytic sustainable framerate must agree with what the simulator
// actually measures for OURS, within tolerance — the guard that keeps the
// closed-form model and the event-driven model from drifting apart.
func TestCapacityPredictsSimulatedFramerate(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run")
	}
	for _, id := range []workload.ScenarioID{workload.Scenario1, workload.Scenario3} {
		cfg := workload.Scenario(id, 0.1)
		pred := analyzeScenario(cfg)
		rep := RunScenario(cfg, core.NewLocalityScheduler(0), 0.05)
		got := rep.MeanFramerate()
		if math.Abs(got-pred.SustainableFPS) > 0.15*pred.SustainableFPS {
			t.Errorf("scenario %d: simulated %.2f fps vs predicted %.2f", id, got, pred.SustainableFPS)
		}
	}
}
