package experiments

import (
	"reflect"
	"testing"

	"vizsched/internal/units"
	"vizsched/internal/workload"
)

// failSweepRates: a clean baseline plus three increasing chaos rates. At
// this scale OURS retains the framerate lead at every rate; EXPERIMENTS.md
// discusses draws where a crash of a locality home node inverts it.
var failSweepRates = []float64{0, 1, 2, 3}

const failSweepScale = 0.5

// TestFailureSweepOursStaysAhead: under the same chaos schedule, the paper's
// scheduler must keep the highest framerate at every fault rate — locality
// plus urgency degrades more gracefully than either FCFS baseline.
func TestFailureSweepOursStaysAhead(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep runs full simulations")
	}
	points := FailureSweepN(failSweepRates, failSweepScale, DefaultWorkers())
	byRate := map[float64]map[string]FailSweepPoint{}
	for _, p := range points {
		if byRate[p.Rate] == nil {
			byRate[p.Rate] = map[string]FailSweepPoint{}
		}
		byRate[p.Rate][p.Scheduler] = p
	}
	for rate, cells := range byRate {
		ours := cells["OURS"]
		for name, p := range cells {
			if name != "OURS" && p.Framerate >= ours.Framerate {
				t.Errorf("rate %.1f: %s fps %.2f >= OURS %.2f", rate, name, p.Framerate, ours.Framerate)
			}
		}
	}
	// The clean baseline must show no recovery activity; the chaotic rates
	// must show the injected degradation being measured.
	for _, p := range points {
		if p.Rate == 0 && (p.Redispatched != 0 || p.MTTR != 0) {
			t.Errorf("rate 0 %s: redispatched=%d MTTR=%v, want zero", p.Scheduler, p.Redispatched, p.MTTR)
		}
	}
	// Rate 3's schedule contains crashes at this scale, so recovery must be
	// visible: bounced tasks and a measured repair time.
	if p := byRate[3]["OURS"]; p.MTTR == 0 || p.Redispatched == 0 {
		t.Errorf("rate 3 OURS: MTTR=%v redispatched=%d, want measured recovery", p.MTTR, p.Redispatched)
	}
}

// TestFaultScheduleShapes pins the schedule derivation: rate 0 and tiny
// horizons yield no faults, counts scale with rate, every fault lands inside
// the horizon, and the same inputs reproduce the same schedule.
func TestFaultScheduleShapes(t *testing.T) {
	length := units.Time(60 * units.Second)
	if fs := FaultSchedule(8, length, 0, 1); fs != nil {
		t.Errorf("rate 0 produced %d faults", len(fs))
	}
	if fs := FaultSchedule(1, length, 4, 1); fs != nil {
		t.Error("single-node cluster got a fault schedule")
	}
	fs := FaultSchedule(8, length, 4, 1)
	if len(fs) != 4 {
		t.Errorf("4 faults/min over 60s produced %d faults, want 4", len(fs))
	}
	for _, f := range fs {
		if f.At < 0 || f.At > length {
			t.Errorf("fault at %v outside horizon %v", f.At, length)
		}
		if int(f.Node) < 0 || int(f.Node) >= 8 {
			t.Errorf("fault targets node %d of 8", f.Node)
		}
	}
	if !reflect.DeepEqual(fs, FaultSchedule(8, length, 4, 1)) {
		t.Error("identical inputs produced different schedules")
	}
	if reflect.DeepEqual(fs, FaultSchedule(8, length, 4, 2)) {
		t.Error("different seeds produced identical schedules")
	}
}

// TestFailureSweepUsesScenario2 pins the sweep to the paper's contended
// scenario so the acceptance comparison stays meaningful.
func TestFailureSweepUsesScenario2(t *testing.T) {
	cfg := workload.Scenario(workload.Scenario2, failSweepScale)
	if cfg.ID != workload.Scenario2 {
		t.Fatalf("scenario = %v", cfg.ID)
	}
	if cfg.Nodes <= 1 {
		t.Fatalf("scenario 2 has %d nodes; the sweep needs a cluster", cfg.Nodes)
	}
}
