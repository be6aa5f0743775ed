package experiments

import (
	"testing"
)

// TestFracSweepAcceptance pins §5.13's headline claims at the default cell:
// the DFRS baseline beats the batch baselines on mean utilization (the
// published DFRS-vs-batch result: late binding never strands an idle node
// behind another node's committed FIFO), and OURS+co reclaims ε-guard idle
// into co-scheduled batch work while holding OURS's interactive tail.
func TestFracSweepAcceptance(t *testing.T) {
	points := FracSweepN(1.0, 4)
	if len(points) != len(fracSweepModes) {
		t.Fatalf("got %d points, want %d", len(points), len(fracSweepModes))
	}
	byMode := map[string]FracSweepPoint{}
	for _, p := range points {
		byMode[p.Mode] = p
	}
	dfrs, fcfs, fcfsl := byMode["DFRS"], byMode["FCFS"], byMode["FCFSL"]
	ours, co := byMode["OURS"], byMode["OURS+co"]

	if dfrs.Utilization <= fcfs.Utilization {
		t.Errorf("DFRS utilization %.3f not above FCFS %.3f", dfrs.Utilization, fcfs.Utilization)
	}
	if dfrs.Utilization <= fcfsl.Utilization {
		t.Errorf("DFRS utilization %.3f not above FCFSL %.3f", dfrs.Utilization, fcfsl.Utilization)
	}
	if fcfs.GuardIdle != 0 || fcfs.QueueIdle != 0 {
		t.Errorf("on-arrival FCFS sampled idle split %v/%v, want zero", fcfs.GuardIdle, fcfs.QueueIdle)
	}

	if ours.GuardIdle <= 0 {
		t.Errorf("OURS guard idle %v, want > 0 — nothing for co-scheduling to reclaim", ours.GuardIdle)
	}
	if co.CoScheduled == 0 || co.CoCompleted == 0 {
		t.Errorf("OURS+co never ran a guest (scheduled=%d completed=%d)", co.CoScheduled, co.CoCompleted)
	}
	if co.Preemptions == 0 {
		t.Errorf("OURS+co guests were never preempted by interactive work")
	}
	if co.ReclaimedPct < 25 {
		t.Errorf("OURS+co reclaimed %.1f%% of guard idle, want >= 25%%", co.ReclaimedPct)
	}
	if co.BatchCompleted < ours.BatchCompleted {
		t.Errorf("OURS+co completed %d batch jobs, fewer than OURS's %d", co.BatchCompleted, ours.BatchCompleted)
	}
	// The acceptance gate: reclaiming guard idle must not cost the
	// interactive tail. Allow 5% slack for repriced completions landing a
	// hair differently.
	if limit := ours.P95 + ours.P95/20; co.P95 > limit {
		t.Errorf("OURS+co p95 %v exceeds OURS %v by more than 5%%", co.P95, ours.P95)
	}
}
