package experiments

import (
	"io"
	"strconv"

	"vizsched/internal/sim"
	"vizsched/internal/units"
)

// compSweepAlgorithms are the compositors the sweep compares: the paper's
// 2-3 swap, the classic binary swap, and the asynchronous distributed
// framebuffer (§5.9).
var compSweepAlgorithms = []string{"binary-swap", "2-3-swap", "dfb"}

// CompSweepNodes are the default cluster sizes, spanning the paper's small
// configuration up to the 100-node scale of its scheduling experiments.
var CompSweepNodes = []int{8, 16, 27, 48, 64, 100}

// CompSweepPoint is one (nodes, algorithm) cell of the compositing sweep.
type CompSweepPoint struct {
	Nodes     int
	Algorithm string

	// MeanLatency/P95Latency are per-frame latencies on a healthy cluster.
	MeanLatency units.Duration
	P95Latency  units.Duration
	// StragglerLatency is the mean per-frame latency with one node slowed
	// 3.5×; Degradation is its ratio over MeanLatency — the straggler
	// sensitivity the asynchronous design exists to shrink. The factor is
	// chosen so the straggled frame plus the barriered rounds overruns the
	// frame budget: the collectives queue up while the asynchronous
	// pipeline absorbs the slow node.
	StragglerLatency units.Duration
	Degradation      float64
}

// compCell evaluates one sweep cell: the same seeded render-time stream
// with and without the slow node, so the degradation ratio isolates the
// straggler's effect from jitter luck.
func compCell(nodes int, alg string) CompSweepPoint {
	base := sim.CompFrameConfig{
		Nodes:     nodes,
		Algorithm: alg,
		Jitter:    Jitter,
		Period:    units.Duration(1e9/TargetFPS) * units.Nanosecond,
		Straggler: -1,
		Seed:      int64(nodes)*7919 + 17,
	}
	healthy := sim.RunCompFrame(base)
	slow := base
	slow.Straggler = nodes / 2
	slow.StragglerFactor = 3.5
	straggled := sim.RunCompFrame(slow)
	return CompSweepPoint{
		Nodes:            nodes,
		Algorithm:        alg,
		MeanLatency:      healthy.MeanLatency,
		P95Latency:       healthy.P95Latency,
		StragglerLatency: straggled.MeanLatency,
		Degradation:      float64(straggled.MeanLatency) / float64(healthy.MeanLatency),
	}
}

// CompSweep runs the compositing sweep over the default node counts.
func CompSweep(workers int) []CompSweepPoint {
	return CompSweepN(CompSweepNodes, workers)
}

// CompSweepN evaluates every (nodes, algorithm) cell. Cells are independent
// closed-form recurrences indexed deterministically, so the result is
// bit-identical at any worker count.
func CompSweepN(nodes []int, workers int) []CompSweepPoint {
	out := make([]CompSweepPoint, len(nodes)*len(compSweepAlgorithms))
	ForEach(workers, len(out), func(cell int) {
		ni, ai := cell/len(compSweepAlgorithms), cell%len(compSweepAlgorithms)
		out[cell] = compCell(nodes[ni], compSweepAlgorithms[ai])
	})
	return out
}

var compSweepHeader = []string{
	"nodes", "algorithm", "mean_latency_ms", "p95_latency_ms",
	"straggler_latency_ms", "degradation",
}

func (p CompSweepPoint) row() []string {
	return []string{
		strconv.Itoa(p.Nodes),
		p.Algorithm,
		f3(p.MeanLatency.Milliseconds()),
		f3(p.P95Latency.Milliseconds()),
		f3(p.StragglerLatency.Milliseconds()),
		f3(p.Degradation),
	}
}

// CompSweepCSV writes the compositing sweep as CSV.
func CompSweepCSV(w io.Writer, points []CompSweepPoint) error {
	return newTable("", compSweepHeader, points).WriteCSV(w)
}
