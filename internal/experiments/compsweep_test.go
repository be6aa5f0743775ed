package experiments

import (
	"bytes"
	"strconv"
	"strings"
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

func TestCompSweepOutputs(t *testing.T) {
	points := CompSweepN([]int{8}, 1)
	var buf bytes.Buffer
	PrintCompSweep(&buf, points)
	if !strings.Contains(buf.String(), "dfb") || !strings.Contains(buf.String(), "degradation") {
		t.Errorf("print output incomplete:\n%s", buf.String())
	}
	buf.Reset()
	if err := CompSweepCSV(&buf, points); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(points) {
		t.Errorf("CSV has %d lines, want %d", len(lines), 1+len(points))
	}
	if !strings.HasPrefix(lines[0], "nodes,algorithm,") {
		t.Errorf("CSV header wrong: %s", lines[0])
	}
}
