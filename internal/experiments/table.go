package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"text/tabwriter"

	"vizsched/internal/metrics"
	"vizsched/internal/workload"
)

// Table is a figure or sweep as formatted cells. The CSV a plotting tool
// reads and the text table vizbench prints both render from it, so each
// column's name and number format are decided once, in a point's row().
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// newTable formats one row per point.
func newTable[P interface{ row() []string }](title string, header []string, points []P) Table {
	t := Table{Title: title, Header: header, Rows: make([][]string, len(points))}
	for i, p := range points {
		t.Rows[i] = p.row()
	}
	return t
}

// WriteCSV writes the header and the rows as CSV; the title is not part of it.
func (t Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	return cw.WriteAll(t.Rows)
}

// WriteText prints the title, the header and rows in aligned columns, and a
// blank line.
func (t Table) WriteText(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, t.Title)
	for _, cells := range append([][]string{t.Header}, t.Rows...) {
		fmt.Fprintln(tw, "  "+strings.Join(cells, "\t"))
	}
	fmt.Fprintln(tw)
	return tw.Flush()
}

// f3 and i64 are the two cell formats every table uses: a float at three
// decimals and an integer.
func f3(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
func i64(v int64) string  { return strconv.FormatInt(v, 10) }

// Sweep is one of vizbench's extension sweeps. Run computes its points and
// formats them; Name is its -only key and its CSV file's base name.
type Sweep struct {
	Name string
	Run  func(scale float64, workers int) Table
}

// Sweeps are the extension sweeps at vizbench's parameters, in the order it
// prints them.
var Sweeps = []Sweep{
	{"failsweep", func(scale float64, workers int) Table {
		return newTable(fmt.Sprintf("Failure sweep — Scenario 2 under a chaos fault mix (crash/slowdisk/stall/flap), target %.2f fps", TargetFPS),
			failSweepHeader, FailureSweepN([]float64{0, 1, 2, 4}, scale, workers))
	}},
	{"replsweep", func(scale float64, workers int) Table {
		return newTable(fmt.Sprintf("Replica sweep — Scenario 2, OURS at k replicas vs FCFSU, chaos fault mix, target %.2f fps", TargetFPS),
			replicaSweepHeader, ReplicaSweepN([]int{1, 2, 3}, []float64{0, 2, 4}, scale, workers))
	}},
	{"qossweep", func(scale float64, workers int) Table {
		return newTable("QoS sweep — Scenario 1 cluster, 4 tenants, Zipf-skewed demand, FIFO vs admission+DRR (§5.7)",
			qosSweepHeader, QoSSweepN([]float64{0, 1.5}, []float64{1, 2, 3}, scale, workers))
	}},
	{"prefsweep", func(_ float64, workers int) Table {
		return newTable("Prefetch sweep — session-revisit scrub, demand-only vs predictive warming (§5.8)",
			prefSweepHeader, PrefetchSweepN([]int{2, 3}, []float64{0.5, 1, 2}, workers))
	}},
	{"hasweep", func(scale float64, workers int) Table {
		return newTable(fmt.Sprintf("HA sweep — Scenario 2 under OURS, head crash at 40%% of the horizon (§5.10), target %.2f fps", TargetFPS),
			haSweepHeader, HASweepN([]float64{0.05, 0.1, 0.2}, scale, workers))
	}},
	{"shardsweep", func(scale float64, workers int) Table {
		return newTable(fmt.Sprintf("Shard sweep — sessions at %d/s vs %v per admission (%.1fx one head's capacity), OURS per shard (§5.11)",
			shardSweepRate, shardSweepAdmit.Std(), float64(shardSweepRate)*shardSweepAdmit.Seconds()),
			shardSweepHeader, ShardSweepN([]int{1, 2, 4, 8}, scale, workers))
	}},
	{"compsweep", func(_ float64, workers int) Table {
		return newTable(fmt.Sprintf("Compositing sweep — per-frame latency at %.2f fps, straggler = one node 3.5× slow", TargetFPS),
			compSweepHeader, CompSweep(workers))
	}},
	{"elasticsweep", func(scale float64, workers int) Table {
		return newTable("Elastic sweep — diurnal sessions, peak-provisioned fixed fleet vs graceful-drain autoscaling, OURS (§5.12)",
			elasticSweepHeader, ElasticSweepN([]int{10, 12}, scale, workers))
	}},
	{"fracsweep", func(scale float64, workers int) Table {
		return newTable("Frac sweep — mixed interactive + batch backlog: batch scheduling vs DFRS vs ε-guard co-scheduling (§5.13)",
			fracSweepHeader, FracSweepN(scale, workers))
	}},
}

// ScenarioCSV writes one scenario's per-scheduler results as CSV, one row
// per policy — the data behind one of Figs. 4–7, ready for any plotting
// tool.
func ScenarioCSV(w io.Writer, id workload.ScenarioID, reports []*metrics.Report) error {
	t := Table{Header: []string{
		"scenario", "scheduler", "fps", "interactive_latency_ms",
		"interactive_p95_ms", "batch_latency_ms", "batch_working_ms",
		"hit_rate_pct", "sched_cost_ns_per_job", "utilization_pct",
		"interactive_completed", "batch_completed", "loads", "evictions",
	}}
	for _, r := range reports {
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(int(id)),
			r.Scheduler,
			f3(r.MeanFramerate()),
			f3(r.Interactive.Latency.Mean().Milliseconds()),
			f3(r.Interactive.LatencyHist.P95().Milliseconds()),
			f3(r.Batch.Latency.Mean().Milliseconds()),
			f3(r.Batch.Working.Mean().Milliseconds()),
			f3(100 * r.HitRate()),
			i64(r.AvgSchedCostPerJob().Nanoseconds()),
			f3(100 * r.Utilization()),
			i64(r.Interactive.Completed),
			i64(r.Batch.Completed),
			i64(r.Loads),
			i64(r.Evictions),
		})
	}
	return t.WriteCSV(w)
}

var fig8Header = []string{"actions", "fcfsu_ns_per_job", "fcfsl_ns_per_job", "ours_ns_per_job"}

func (p Fig8Point) row() []string {
	return []string{
		strconv.Itoa(p.Actions),
		i64(p.Cost["FCFSU"].Nanoseconds()),
		i64(p.Cost["FCFSL"].Nanoseconds()),
		i64(p.Cost["OURS"].Nanoseconds()),
	}
}

// Fig8CSV writes the user-action sweep as CSV.
func Fig8CSV(w io.Writer, points []Fig8Point) error {
	return newTable("", fig8Header, points).WriteCSV(w)
}

var fig9Header = []string{"datasets", "sched_cost_ns_per_job", "fps", "latency_ms"}

func (p Fig9Point) row() []string {
	return []string{
		strconv.Itoa(p.Datasets),
		i64(p.Cost.Nanoseconds()),
		f3(p.Framerate),
		f3(p.Latency.Milliseconds()),
	}
}

// Fig9CSV writes the dataset sweep as CSV.
func Fig9CSV(w io.Writer, points []Fig9Point) error {
	return newTable("", fig9Header, points).WriteCSV(w)
}
