package experiments

import (
	"bytes"
	"strings"
	"testing"

	"vizsched/internal/qos"
)

var (
	qosSweepSkews = []float64{0, 1.5}
	qosSweepLoads = []float64{1, 2, 3}
)

const qosSweepScale = 0.1

// TestQoSSweepFairnessImproves is the acceptance criterion: with skewed
// tenant demand at 2× overload and beyond, admission control plus DRR must
// yield a strictly higher Jain fairness index than the FIFO baseline, while
// shedding load instead of letting the queue (and tail latency) collapse.
func TestQoSSweepFairnessImproves(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep runs full simulations")
	}
	points := QoSSweepN([]float64{1.5}, []float64{2, 3}, qosSweepScale, DefaultWorkers())
	if len(points)%2 != 0 {
		t.Fatalf("odd point count %d, want FIFO/QoS pairs", len(points))
	}
	for i := 0; i < len(points); i += 2 {
		fifo, q := points[i], points[i+1]
		if fifo.Mode != "FIFO" || q.Mode != "QoS" || fifo.Load != q.Load {
			t.Fatalf("pairing broken: %+v / %+v", fifo, q)
		}
		if q.Jain <= fifo.Jain {
			t.Errorf("load %.1fx skew %.1f: QoS jain %.3f <= FIFO %.3f", q.Load, q.Skew, q.Jain, fifo.Jain)
		}
		if q.P95 >= fifo.P95 {
			t.Errorf("load %.1fx: QoS p95 %v >= FIFO %v — shedding should bound the tail", q.Load, q.P95, fifo.P95)
		}
		if q.Rejected == 0 && q.Throttled == 0 && q.Shed == 0 {
			t.Errorf("load %.1fx: QoS made no admission decisions under overload", q.Load)
		}
		if fifo.Admitted != 0 || fifo.Rejected != 0 || fifo.MaxLevel != 0 {
			t.Errorf("FIFO cell carries QoS counters: %+v", fifo)
		}
		if q.Completed == 0 || fifo.Completed == 0 {
			t.Errorf("load %.1fx: empty cell (fifo %d, qos %d completions)", q.Load, fifo.Completed, q.Completed)
		}
	}
}

// TestQoSSweepLadderEngagesUnderOverload: by 3× the degradation ladder must
// have stepped at least once during the run.
func TestQoSSweepLadderEngagesUnderOverload(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep runs full simulations")
	}
	pts := QoSSweepN([]float64{0}, []float64{3}, qosSweepScale, DefaultWorkers())
	q := pts[len(pts)-1]
	if q.Mode != "QoS" {
		t.Fatalf("last cell is %q, want QoS", q.Mode)
	}
	if q.MaxLevel < int(qos.LevelHalveBatch) {
		t.Errorf("3x overload never engaged the ladder: max level %d", q.MaxLevel)
	}
}

// TestQoSSweepCSV pins the CSV surface consumed by the plotting scripts.
func TestQoSSweepCSV(t *testing.T) {
	pts := []QoSSweepPoint{{Skew: 1.5, Load: 2, Mode: "QoS", Actions: 12, Jain: 0.987, Admitted: 10}}
	var buf bytes.Buffer
	if err := QoSSweepCSV(&buf, pts); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want header+1", len(lines))
	}
	if !strings.HasPrefix(lines[0], "tenant_skew,load,mode,") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "QoS") || !strings.Contains(lines[1], "0.987") {
		t.Errorf("row = %q", lines[1])
	}
}
