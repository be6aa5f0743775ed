package experiments

import (
	"testing"
)

// TestElasticSweepAcceptance pins §5.12's headline claim end to end: on the
// diurnal workload the elastic fleet matches the peak-provisioned fixed
// fleet's interactive p95 (within 5%) at ≥30% fewer node-hours, with zero
// tasks lost across every drain — and it gets there by actually cycling the
// fleet (scale-ups, completed drains, bring-up warms all non-zero).
func TestElasticSweepAcceptance(t *testing.T) {
	fleets := []int{10, 12}
	points := ElasticSweepN(fleets, 1.0, 4)
	if len(points) != 2*len(fleets) {
		t.Fatalf("got %d points, want %d", len(points), 2*len(fleets))
	}
	for i := 0; i < len(points); i += 2 {
		fixed, elastic := points[i], points[i+1]
		if fixed.Mode != "fixed" || elastic.Mode != "elastic" || fixed.Nodes != elastic.Nodes {
			t.Fatalf("cell layout broken: %+v / %+v", fixed, elastic)
		}
		n := fixed.Nodes
		if fixed.Lost != 0 {
			t.Errorf("fleet %d fixed: lost %d tasks", n, fixed.Lost)
		}
		if elastic.Lost != 0 {
			t.Errorf("fleet %d elastic: lost %d tasks across %d drains, want 0",
				n, elastic.Lost, elastic.Drains)
		}
		if limit := fixed.P95 + fixed.P95/20; elastic.P95 > limit {
			t.Errorf("fleet %d: elastic p95 %v exceeds fixed %v by more than 5%%",
				n, elastic.P95, fixed.P95)
		}
		if elastic.SavingsPct < 30 {
			t.Errorf("fleet %d: savings %.1f%%, want >= 30%%", n, elastic.SavingsPct)
		}
		if elastic.ScaleUps == 0 || elastic.DrainsCompleted == 0 {
			t.Errorf("fleet %d: fleet never cycled (ups=%d drains-completed=%d)",
				n, elastic.ScaleUps, elastic.DrainsCompleted)
		}
		if elastic.Drains != elastic.DrainsCompleted {
			t.Errorf("fleet %d: %d drains started, %d completed", n, elastic.Drains, elastic.DrainsCompleted)
		}
		if elastic.BringupWarms == 0 {
			t.Errorf("fleet %d: no bring-up warms; scale-ups came up cold", n)
		}
		if elastic.MinActive >= n {
			t.Errorf("fleet %d: MinActive %d — the fleet never shrank", n, elastic.MinActive)
		}
	}
}
