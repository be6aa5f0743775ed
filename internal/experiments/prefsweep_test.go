package experiments

import (
	"reflect"
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

// TestPrefetchSweepPrint: the prefetch table has a row per mode at the
// quota asked for.
func TestPrefetchSweepPrint(t *testing.T) {
	tab := newTable("", prefSweepHeader, PrefetchSweepN([]int{3}, []float64{1.0}, 2))
	if got := column(t, tab, "mode"); !reflect.DeepEqual(got, prefSweepModes) {
		t.Errorf("mode column = %q, want %q", got, prefSweepModes)
	}
	if got, want := column(t, tab, "quota_chunks"), []string{"3", "3"}; !reflect.DeepEqual(got, want) {
		t.Errorf("quota_chunks column = %q, want %q", got, want)
	}
}
