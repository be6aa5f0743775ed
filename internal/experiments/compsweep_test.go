package experiments

import (
	"reflect"
	"strconv"
	"testing"
)

// TestCompSweepDFBWins pins the acceptance criterion: dfb mean frame
// latency strictly below 2-3 swap at ≥27 nodes, with a materially smaller
// straggler degradation than both swap collectives.
func TestCompSweepDFBWins(t *testing.T) {
	points := CompSweep(DefaultWorkers())
	byKey := map[string]CompSweepPoint{}
	for _, p := range points {
		byKey[p.Algorithm+"/"+itoa(p.Nodes)] = p
	}
	for _, n := range CompSweepNodes {
		if n < 27 {
			continue
		}
		d, tt, bs := byKey["dfb/"+itoa(n)], byKey["2-3-swap/"+itoa(n)], byKey["binary-swap/"+itoa(n)]
		if d.MeanLatency >= tt.MeanLatency {
			t.Errorf("n=%d: dfb mean %v not strictly below 2-3 swap %v", n, d.MeanLatency, tt.MeanLatency)
		}
		if d.Degradation*2 > tt.Degradation || d.Degradation*2 > bs.Degradation {
			t.Errorf("n=%d: dfb degradation %.2fx not materially below swaps (%.2fx / %.2fx)",
				n, d.Degradation, tt.Degradation, bs.Degradation)
		}
	}
}

func itoa(n int) string { return strconv.Itoa(n) }

// TestCompSweepOutputs: the compositing table has one row per algorithm at
// each node count, in compSweepAlgorithms order.
func TestCompSweepOutputs(t *testing.T) {
	tab := newTable("", compSweepHeader, CompSweepN([]int{8}, 1))
	if got := column(t, tab, "algorithm"); !reflect.DeepEqual(got, compSweepAlgorithms) {
		t.Errorf("algorithm column = %q, want %q", got, compSweepAlgorithms)
	}
	if got, want := column(t, tab, "nodes"), []string{"8", "8", "8"}; !reflect.DeepEqual(got, want) {
		t.Errorf("nodes column = %q, want %q", got, want)
	}
}
