package experiments

import (
	"bytes"
	"strings"
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

// TestShardSweepOutput: the print and CSV forms render every point, and a
// donation-capable cell reports through the donated column.
func TestShardSweepOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep runs full simulations")
	}
	points := ShardSweepN(shardSweepCounts, shardSweepScale, DefaultWorkers())
	var buf bytes.Buffer
	PrintShardSweep(&buf, points)
	if got := strings.Count(buf.String(), "\n"); got < len(points)+2 {
		t.Errorf("print rendered %d lines, want ≥ %d", got, len(points)+2)
	}
	var csvBuf bytes.Buffer
	if err := ShardSweepCSV(&csvBuf, points); err != nil {
		t.Fatalf("CSV: %v", err)
	}
	if got, want := strings.Count(csvBuf.String(), "\n"), len(points)+1; got != want {
		t.Errorf("CSV rows = %d, want %d", got, want)
	}
}
