package experiments

import (
	"reflect"
	"testing"
)

var shardSweepCounts = []int{1, 2, 4}

const shardSweepScale = 0.5

// TestShardSweepScaling is the headline acceptance criterion: on the
// overload scenario (arrivals at 3.5× one head's admission capacity), four
// shards must complete at least 3× the sessions one shard does, with zero
// cross-shard invariant violations in any cell.
func TestShardSweepScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep runs full simulations")
	}
	points := ShardSweepN([]int{1, 4}, shardSweepScale, DefaultWorkers())
	for _, p := range points {
		if p.InvariantErr != "" {
			t.Errorf("invariants violated at %d shards: %s", p.Shards, p.InvariantErr)
		}
		if p.Completed == 0 {
			t.Fatalf("%d shards completed nothing", p.Shards)
		}
	}
	ratio := float64(points[1].Completed) / float64(points[0].Completed)
	if ratio < 3 {
		t.Errorf("4 shards completed %d vs %d at 1 shard — %.2fx, want ≥3x",
			points[1].Completed, points[0].Completed, ratio)
	}
}

// TestShardSweepOutput: the shard table has a row per shard count, each
// with a clean invariant verdict, and the 1-shard cell donates nothing.
func TestShardSweepOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep runs full simulations")
	}
	tab := newTable("", shardSweepHeader, ShardSweepN(shardSweepCounts, shardSweepScale, DefaultWorkers()))
	if got, want := column(t, tab, "shards"), []string{"1", "2", "4"}; !reflect.DeepEqual(got, want) {
		t.Errorf("shards column = %q, want %q", got, want)
	}
	if got, want := column(t, tab, "invariant_error"), []string{"", "", ""}; !reflect.DeepEqual(got, want) {
		t.Errorf("invariant_error column = %q, want %q", got, want)
	}
	if got := column(t, tab, "donated")[0]; got != "0" {
		t.Errorf("1-shard cell donated %s jobs", got)
	}
}
