package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

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

// PrintCompSweep prints already-computed compositing-sweep points.
func PrintCompSweep(w io.Writer, points []CompSweepPoint) {
	fmt.Fprintf(w, "Compositing sweep — per-frame latency at %.2f fps, straggler = one node 3.5× slow\n", TargetFPS)
	fmt.Fprintf(w, "  %-6s %-12s %10s %10s %12s %12s\n",
		"nodes", "algorithm", "mean", "p95", "straggler", "degradation")
	last := -1
	for _, p := range points {
		if p.Nodes != last && last >= 0 {
			fmt.Fprintln(w)
		}
		last = p.Nodes
		fmt.Fprintf(w, "  %-6d %-12s %10v %10v %12v %11.2fx\n",
			p.Nodes, p.Algorithm,
			p.MeanLatency.Std().Round(10*time.Microsecond),
			p.P95Latency.Std().Round(10*time.Microsecond),
			p.StragglerLatency.Std().Round(10*time.Microsecond),
			p.Degradation)
	}
	fmt.Fprintln(w)
}

// CompSweepCSV writes the compositing sweep as CSV.
func CompSweepCSV(w io.Writer, points []CompSweepPoint) error {
	cw := csv.NewWriter(w)
	header := []string{
		"nodes", "algorithm", "mean_latency_ms", "p95_latency_ms",
		"straggler_latency_ms", "degradation",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
	for _, p := range points {
		rec := []string{
			strconv.Itoa(p.Nodes),
			p.Algorithm,
			f(p.MeanLatency.Milliseconds()),
			f(p.P95Latency.Milliseconds()),
			f(p.StragglerLatency.Milliseconds()),
			f(p.Degradation),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
