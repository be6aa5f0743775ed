package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestPrefetchSweepFirstFrameReduction is the §5.8 acceptance gate: at the
// default scenario (3-of-4 chunks resident, load 1.0) predictive warming
// must cut mean first-frame latency by at least 20% without costing any
// demand completions.
func TestPrefetchSweepFirstFrameReduction(t *testing.T) {
	points := PrefetchSweepN([]int{3}, []float64{1.0}, 1)
	if len(points) != 2 {
		t.Fatalf("expected off+on points, got %d", len(points))
	}
	off, on := points[0], points[1]
	if off.Mode != "off" || on.Mode != "on" {
		t.Fatalf("mode order wrong: %q, %q", off.Mode, on.Mode)
	}
	if on.Completed != off.Completed {
		t.Fatalf("prefetching changed demand completions: off=%d on=%d", off.Completed, on.Completed)
	}
	if off.FirstFrame <= 0 {
		t.Fatalf("baseline first-frame latency not measured: %v", off.FirstFrame)
	}
	if got, limit := float64(on.FirstFrame), 0.8*float64(off.FirstFrame); got > limit {
		t.Fatalf("first-frame reduction below 20%%: off=%v on=%v", off.FirstFrame, on.FirstFrame)
	}
	if on.Hits+on.HiddenHits == 0 {
		t.Fatalf("improvement without recorded prefetch hits: %+v", on)
	}
}

// TestPrefetchSweepOffCellsInert: every "off" cell must report zeroed
// prefetch lifecycle counters — the demand-only baseline really ran
// demand-only.
func TestPrefetchSweepOffCellsInert(t *testing.T) {
	for _, p := range PrefetchSweepN([]int{2, 3}, []float64{1.0}, 1) {
		if p.Mode != "off" {
			continue
		}
		if p.Issued != 0 || p.Loaded != 0 || p.Hits != 0 || p.HiddenHits != 0 || p.Wasted != 0 || p.BytesMoved != 0 {
			t.Fatalf("off cell carries prefetch activity: %+v", p)
		}
	}
}

// TestPrefetchSweepPrint smoke-checks the human-readable table.
func TestPrefetchSweepPrint(t *testing.T) {
	points := PrefetchSweepN([]int{3}, []float64{1.0}, 2)
	var buf bytes.Buffer
	PrintPrefetchSweep(&buf, points)
	if len(points) != 2 {
		t.Fatalf("expected 2 points, got %d", len(points))
	}
	out := buf.String()
	for _, want := range []string{"Prefetch sweep", "3x512M", "first-frame", "off", "on"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}
