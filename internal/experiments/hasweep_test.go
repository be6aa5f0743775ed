package experiments

import (
	"reflect"
	"testing"
)

var haSweepOutages = []float64{0.05, 0.1}

const haSweepScale = 0.1

// TestHASweepCommittedSurvival is the acceptance criterion: across every
// outage length and fault shape, zero committed sessions are lost and zero
// tasks re-render — the outage defers work, it never destroys it — and the
// measured control-plane MTTR is exactly the injected outage span.
func TestHASweepCommittedSurvival(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep runs full simulations")
	}
	points := HASweepN(haSweepOutages, haSweepScale, DefaultWorkers())
	if len(points) != len(haSweepOutages)*len(haSweepModes) {
		t.Fatalf("got %d points, want %d", len(points), len(haSweepOutages)*len(haSweepModes))
	}
	for _, p := range points {
		if p.CommittedLost != 0 {
			t.Errorf("%s outage %.2f: committed lost = %d, want 0", p.Mode, p.Outage, p.CommittedLost)
		}
		if p.Redispatched != 0 {
			t.Errorf("%s outage %.2f: tasks redispatched = %d, want 0 (nothing re-renders)",
				p.Mode, p.Outage, p.Redispatched)
		}
		if p.Completed == 0 {
			t.Errorf("%s outage %.2f: no interactive jobs completed", p.Mode, p.Outage)
		}
		switch p.Mode {
		case "clean":
			if p.ControlMTTR != 0 || p.ArrivalsDeferred != 0 || p.ResultsDeferred != 0 {
				t.Errorf("clean outage %.2f: nonzero recovery metrics %+v", p.Outage, p)
			}
		default:
			if p.CommittedAtCrash == 0 {
				t.Errorf("%s outage %.2f: nothing committed before the crash; the cell is vacuous",
					p.Mode, p.Outage)
			}
			if p.ArrivalsDeferred == 0 {
				t.Errorf("%s outage %.2f: the outage deferred no arrivals", p.Mode, p.Outage)
			}
			if p.ControlMTTR <= 0 {
				t.Errorf("%s outage %.2f: control MTTR = %v, want > 0", p.Mode, p.Outage, p.ControlMTTR)
			}
		}
	}
	// Longer outages cost frames monotonically in expectation; at minimum the
	// faulted runs must not complete more than the clean run.
	for i := 0; i < len(points); i += len(haSweepModes) {
		clean := points[i]
		for _, p := range points[i+1 : i+len(haSweepModes)] {
			if p.Completed > clean.Completed {
				t.Errorf("%s outage %.2f completed more (%d) than clean (%d)",
					p.Mode, p.Outage, p.Completed, clean.Completed)
			}
		}
	}
}

// TestHASweepOutput: the HA table has a row for every fault shape, and none
// loses a committed session.
func TestHASweepOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep runs full simulations")
	}
	tab := newTable("", haSweepHeader, HASweepN([]float64{0.1}, haSweepScale, DefaultWorkers()))
	if got := column(t, tab, "mode"); !reflect.DeepEqual(got, haSweepModes) {
		t.Errorf("mode column = %q, want %q", got, haSweepModes)
	}
	if got, want := column(t, tab, "committed_lost"), []string{"0", "0", "0"}; !reflect.DeepEqual(got, want) {
		t.Errorf("committed_lost column = %q, want %q", got, want)
	}
}
