package experiments

import (
	"bytes"
	"io"
	"reflect"
	"sync"
	"testing"

	"vizsched/internal/metrics"
	"vizsched/internal/workload"
)

func TestForEachVisitsEachIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		const n = 57
		var mu sync.Mutex
		seen := make([]int, n)
		ForEach(workers, n, func(i int) {
			mu.Lock()
			seen[i]++
			mu.Unlock()
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	called := false
	ForEach(4, 0, func(int) { called = true })
	ForEach(4, -1, func(int) { called = true })
	if called {
		t.Error("ForEach invoked fn for non-positive n")
	}
}

// stripWallClock zeroes the only wall-clock-derived field of a report so the
// rest can be compared bit for bit. Everything else in a Report is derived
// from virtual time and the seeded RNGs, hence deterministic.
func stripWallClock(r *metrics.Report) {
	r.SchedWall = 0
}

// The tentpole guarantee: running scenarios through the parallel runner
// yields byte-identical virtual-time results to the sequential path, for
// every scheduler. Run with -race in CI, this doubles as the data-race
// check on the worker pool and the shared scenario config/library.
func TestParallelMatchesSequential(t *testing.T) {
	for _, id := range []workload.ScenarioID{workload.Scenario1, workload.Scenario2} {
		ids := []workload.ScenarioID{id}
		seq := RunScenarios(ids, 0.05, 1)[id]
		par := RunScenarios(ids, 0.05, 4)[id]
		if len(seq) != len(par) {
			t.Fatalf("scenario %d: %d sequential vs %d parallel reports", id, len(seq), len(par))
		}
		for i := range seq {
			stripWallClock(seq[i])
			stripWallClock(par[i])
			if seq[i].Scheduler != par[i].Scheduler {
				t.Fatalf("scenario %d: report %d is %s sequentially but %s in parallel",
					id, i, seq[i].Scheduler, par[i].Scheduler)
			}
			if !reflect.DeepEqual(seq[i], par[i]) {
				t.Errorf("scenario %d, %s: parallel report differs from sequential", id, seq[i].Scheduler)
			}
		}
	}
}

// RunScenarios must agree with per-scenario sequential runs cell by cell.
func TestRunScenariosMatchesPerScenario(t *testing.T) {
	ids := []workload.ScenarioID{workload.Scenario1, workload.Scenario2}
	got := RunScenarios(ids, 0.05, 4)
	for _, id := range ids {
		want := RunScenarios([]workload.ScenarioID{id}, 0.05, 1)[id]
		if len(got[id]) != len(want) {
			t.Fatalf("scenario %d: got %d reports, want %d", id, len(got[id]), len(want))
		}
		for i := range want {
			stripWallClock(want[i])
			stripWallClock(got[id][i])
			if !reflect.DeepEqual(want[i], got[id][i]) {
				t.Errorf("scenario %d, %s: fan-out report differs from sequential", id, want[i].Scheduler)
			}
		}
	}
}

// The Fig. 9 sweep's virtual-time panels must not depend on the worker
// count (the Cost panel is wall-clock and excluded).
func TestFig9ParallelVirtualTimeDeterminism(t *testing.T) {
	counts := []int{2, 4}
	seq := Fig9DatasetSweepN(counts, 2, 1)
	par := Fig9DatasetSweepN(counts, 2, 4)
	for i := range seq {
		if seq[i].Datasets != par[i].Datasets ||
			seq[i].Framerate != par[i].Framerate ||
			seq[i].Latency != par[i].Latency {
			t.Errorf("point %d: sequential {ds=%d fps=%v lat=%v} vs parallel {ds=%d fps=%v lat=%v}",
				i, seq[i].Datasets, seq[i].Framerate, seq[i].Latency,
				par[i].Datasets, par[i].Framerate, par[i].Latency)
		}
	}
}

// The hoisted Fig. 8 libraries must give every scheduler the decomposition
// it would have built for itself, and share libraries between schedulers
// with the same policy.
func TestFig8LibraryHoist(t *testing.T) {
	libs := fig8Libraries()
	for _, name := range fig8Names {
		if libs[name] == nil {
			t.Fatalf("no library for %s", name)
		}
	}
	if libs["FCFSL"] != libs["OURS"] {
		t.Error("FCFSL and OURS use the same decomposition but got distinct libraries")
	}
	if libs["FCFSU"] == libs["FCFSL"] {
		t.Error("FCFSU's uniform decomposition must not share FCFSL's max-chunk library")
	}
}

// Fig. 8 sweep points must come back in input order with all three
// schedulers priced, at any worker count.
func TestFig8SweepShape(t *testing.T) {
	actions := []int{1, 4}
	points := Fig8ActionSweepN(actions, 2, 4)
	if len(points) != len(actions) {
		t.Fatalf("got %d points, want %d", len(points), len(actions))
	}
	for i, p := range points {
		if p.Actions != actions[i] {
			t.Errorf("point %d has Actions=%d, want %d", i, p.Actions, actions[i])
		}
		for _, name := range fig8Names {
			if _, ok := p.Cost[name]; !ok {
				t.Errorf("point %d missing cost for %s", i, name)
			}
		}
	}
}

// sweepRun is one extension sweep as the determinism test drives it.
type sweepRun struct {
	name string
	long bool // skipped under -short: the sweep runs full scenario simulations
	run  func(workers int) (points any, csv []byte, err error)
}

func sweepCase[P any](name string, long bool, run func(workers int) []P, toCSV func(io.Writer, []P) error) sweepRun {
	return sweepRun{name, long, func(workers int) (any, []byte, error) {
		points := run(workers)
		var buf bytes.Buffer
		err := toCSV(&buf, points)
		return points, buf.Bytes(), err
	}}
}

// TestSweepsDeterministicAcrossWorkers: every extension sweep is a grid of
// independent virtual-time simulations written into index-addressed slots,
// so its points, and the CSV bytes `vizbench -parallel` writes from them,
// must be the same whether the cells run one at a time or eight at once.
func TestSweepsDeterministicAcrossWorkers(t *testing.T) {
	for _, s := range []sweepRun{
		sweepCase("failure", true, func(w int) []FailSweepPoint {
			return FailureSweepN(failSweepRates, failSweepScale, w)
		}, FailureSweepCSV),
		sweepCase("replica", true, func(w int) []ReplicaSweepPoint {
			return ReplicaSweepN(replSweepKs, replSweepRates, replSweepScale, w)
		}, ReplicaSweepCSV),
		sweepCase("prefetch", false, func(w int) []PrefetchSweepPoint {
			return PrefetchSweepN([]int{2, 3}, []float64{0.5, 1.0, 2.0}, w)
		}, PrefetchSweepCSV),
		sweepCase("qos", true, func(w int) []QoSSweepPoint {
			return QoSSweepN(qosSweepSkews, qosSweepLoads, qosSweepScale, w)
		}, QoSSweepCSV),
		sweepCase("ha", true, func(w int) []HASweepPoint {
			return HASweepN(haSweepOutages, haSweepScale, w)
		}, HASweepCSV),
		sweepCase("shard", true, func(w int) []ShardSweepPoint {
			return ShardSweepN(shardSweepCounts, shardSweepScale, w)
		}, ShardSweepCSV),
		sweepCase("elastic", false, func(w int) []ElasticSweepPoint {
			return ElasticSweepN([]int{10, 12}, 0.25, w)
		}, ElasticSweepCSV),
		sweepCase("frac", false, func(w int) []FracSweepPoint {
			return FracSweepN(0.25, w)
		}, FracSweepCSV),
		sweepCase("comp", false, func(w int) []CompSweepPoint {
			return CompSweepN([]int{8, 27, 64}, w)
		}, CompSweepCSV),
	} {
		t.Run(s.name, func(t *testing.T) {
			if s.long && testing.Short() {
				t.Skip("sweep runs full simulations")
			}
			seq, seqCSV, err := s.run(1)
			if err != nil {
				t.Fatal(err)
			}
			par, parCSV, err := s.run(8)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("points diverge across worker counts:\n-parallel 1: %+v\n-parallel 8: %+v", seq, par)
			}
			if !bytes.Equal(seqCSV, parCSV) {
				t.Errorf("CSV diverges across worker counts:\n-- -parallel 1 --\n%s\n-- -parallel 8 --\n%s", seqCSV, parCSV)
			}
		})
	}
}
