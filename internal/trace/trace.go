// Package trace records the scheduling and execution events of a simulation
// run and renders them for inspection: CSV for analysis pipelines and an
// SVG Gantt chart of per-node occupancy — the visual form of the load
// balance the paper's Figs. 4–7 summarize numerically.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"vizsched/internal/core"
	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// Kind tags an event.
type Kind int

// Event kinds.
const (
	JobArrive Kind = iota + 1
	Assign
	Load
	TaskDone
	JobDone
	NodeFail
	NodeRepair
	// QoS admission outcomes (internal/qos): Admit and Throttle let the job
	// into the fair queue (Throttle on borrowed tokens), Reject turns it
	// away, Shed drops a stale interactive frame (on arrival or by
	// superseding a queued one). Degrade marks a ladder level change; the
	// event's Level field carries the new rung.
	Admit
	Throttle
	Reject
	Shed
	Degrade
	// Prefetch lifecycle (internal/prefetch): PrefetchIssue starts a
	// background warm (Dur carries the predicted load span), PrefetchHit
	// marks a demand task finding a warmed chunk (Hit true for a resident
	// hit, false for an in-flight absorption), PrefetchCancel abandons a
	// warm, and PrefetchWaste marks a warmed chunk evicted untouched.
	PrefetchIssue
	PrefetchHit
	PrefetchCancel
	PrefetchWaste
	// Control-plane chaos (§5.10): HeadFail/HeadRepair bound a head outage
	// (the interval snapshot+journal recovery spans), NodePartition/NodeHeal
	// bound a transport partition that isolates a live node from the head —
	// the node keeps rendering and retains completion reports until heal.
	HeadFail
	HeadRepair
	NodePartition
	NodeHeal
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case JobArrive:
		return "job-arrive"
	case Assign:
		return "assign"
	case Load:
		return "load"
	case TaskDone:
		return "task-done"
	case JobDone:
		return "job-done"
	case NodeFail:
		return "node-fail"
	case NodeRepair:
		return "node-repair"
	case Admit:
		return "admit"
	case Throttle:
		return "throttle"
	case Reject:
		return "reject"
	case Shed:
		return "shed"
	case Degrade:
		return "degrade"
	case PrefetchIssue:
		return "prefetch-issue"
	case PrefetchHit:
		return "prefetch-hit"
	case PrefetchCancel:
		return "prefetch-cancel"
	case PrefetchWaste:
		return "prefetch-waste"
	case HeadFail:
		return "head-fail"
	case HeadRepair:
		return "head-repair"
	case NodePartition:
		return "node-partition"
	case NodeHeal:
		return "node-heal"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one recorded occurrence. Dur is the execution/load span ending
// at At for TaskDone and Load events.
type Event struct {
	At    units.Time
	Kind  Kind
	Job   core.JobID
	Class core.Class
	Task  int
	Node  core.NodeID
	Chunk volume.ChunkID
	Dur   units.Duration
	Hit   bool
	// Tenant identifies the job's tenant for QoS events (zero otherwise);
	// Level is the degradation-ladder rung carried by Degrade events.
	Tenant core.TenantID
	Level  int
}

// Log accumulates events up to an optional cap (0 = unbounded). When the
// cap is hit, further events are dropped and Dropped counts them — a
// full-scale scenario 4 produces tens of millions of events, which nobody
// should record by accident.
type Log struct {
	Events  []Event
	Cap     int
	Dropped int64
}

// New returns a log bounded to capacity events (0 = unbounded).
func New(capacity int) *Log { return &Log{Cap: capacity} }

// Add records an event, honoring the cap.
func (l *Log) Add(ev Event) {
	if l.Cap > 0 && len(l.Events) >= l.Cap {
		l.Dropped++
		return
	}
	l.Events = append(l.Events, ev)
}

// Len returns the number of retained events.
func (l *Log) Len() int { return len(l.Events) }

// WriteCSV emits the log with a header row.
func (l *Log) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"at_us", "kind", "job", "class", "task", "node", "chunk", "dur_us", "hit", "tenant", "level"}); err != nil {
		return err
	}
	for _, ev := range l.Events {
		rec := []string{
			strconv.FormatFloat(float64(ev.At)/1e3, 'f', 3, 64),
			ev.Kind.String(),
			strconv.FormatInt(int64(ev.Job), 10),
			ev.Class.String(),
			strconv.Itoa(ev.Task),
			strconv.Itoa(int(ev.Node)),
			ev.Chunk.String(),
			strconv.FormatFloat(ev.Dur.Microseconds(), 'f', 3, 64),
			strconv.FormatBool(ev.Hit),
			strconv.Itoa(int(ev.Tenant)),
			strconv.Itoa(ev.Level),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// GanttSVG renders per-node occupancy bars for TaskDone and Load events
// within [from, to] (zero `to` selects the last event). Interactive task
// bars are blue, batch bars orange, loads gray, failures red marks.
func (l *Log) GanttSVG(w io.Writer, nodes int, from, to units.Time) error {
	if to <= from {
		for _, ev := range l.Events {
			if ev.At > to {
				to = ev.At
			}
		}
	}
	if to <= from {
		return fmt.Errorf("trace: empty time range")
	}
	const (
		rowH    = 18
		rowGap  = 4
		width   = 1200
		leftPad = 60
		topPad  = 24
	)
	footerY := topPad + nodes*(rowH+rowGap)
	height := footerY + 24
	span := float64(to - from)
	x := func(t units.Time) float64 {
		return leftPad + float64(t-from)/span*(width-leftPad-10)
	}
	fmt.Fprintf(w, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="11">`+"\n", width, height)
	fmt.Fprintf(w, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	fmt.Fprintf(w, `<text x="%d" y="14">node occupancy %v - %v</text>`+"\n", leftPad, from, to)
	for n := 0; n < nodes; n++ {
		y := topPad + n*(rowH+rowGap)
		fmt.Fprintf(w, `<text x="4" y="%d">R%d</text>`+"\n", y+rowH-5, n)
		fmt.Fprintf(w, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#ddd"/>`+"\n",
			leftPad, y+rowH, width-10, y+rowH)
	}
	for _, ev := range l.Events {
		switch ev.Kind {
		case TaskDone, Load:
			start := ev.At - units.Time(ev.Dur)
			if ev.At < from || start > to {
				continue
			}
			if start < from {
				start = from
			}
			end := ev.At
			if end > to {
				end = to
			}
			y := topPad + int(ev.Node)*(rowH+rowGap)
			color := "#4878cf" // interactive
			switch {
			case ev.Kind == Load:
				color = "#999999"
			case ev.Class == core.Batch:
				color = "#e8853b"
			}
			wpx := x(end) - x(start)
			if wpx < 0.5 {
				wpx = 0.5
			}
			fmt.Fprintf(w, `<rect x="%.2f" y="%d" width="%.2f" height="%d" fill="%s"/>`+"\n",
				x(start), y, wpx, rowH-2, color)
		case NodeFail:
			if ev.At < from || ev.At > to {
				continue
			}
			y := topPad + int(ev.Node)*(rowH+rowGap)
			fmt.Fprintf(w, `<rect x="%.2f" y="%d" width="2" height="%d" fill="#cc2222"/>`+"\n",
				x(ev.At), y, rowH-2)
		case NodePartition, NodeHeal:
			// Partitions mark the isolated node's row: amber at the cut,
			// teal at the heal — the node kept working in between.
			if ev.At < from || ev.At > to {
				continue
			}
			color := "#dd8822"
			if ev.Kind == NodeHeal {
				color = "#228888"
			}
			y := topPad + int(ev.Node)*(rowH+rowGap)
			fmt.Fprintf(w, `<rect x="%.2f" y="%d" width="2" height="%d" fill="%s"/>`+"\n",
				x(ev.At), y, rowH-2, color)
		case HeadFail, HeadRepair:
			// Head outages cut across every row: the control plane is down
			// for the whole cluster. Red dashed at the crash, green at the
			// recovered standby's takeover.
			if ev.At < from || ev.At > to {
				continue
			}
			color := "#cc2222"
			if ev.Kind == HeadRepair {
				color = "#2d8a2d"
			}
			fmt.Fprintf(w, `<line x1="%.2f" y1="%d" x2="%.2f" y2="%d" stroke="%s" stroke-dasharray="4,2"/>`+"\n",
				x(ev.At), topPad, x(ev.At), footerY, color)
		case Degrade:
			// Ladder level changes cut across all rows: a dashed purple line
			// with the new rung labeled, so degradation episodes bracket the
			// load they were reacting to.
			if ev.At < from || ev.At > to {
				continue
			}
			fmt.Fprintf(w, `<line x1="%.2f" y1="%d" x2="%.2f" y2="%d" stroke="#7733aa" stroke-dasharray="3,2"/>`+"\n",
				x(ev.At), topPad, x(ev.At), footerY)
			fmt.Fprintf(w, `<text x="%.2f" y="%d" fill="#7733aa">L%d</text>`+"\n",
				x(ev.At)+2, topPad+10, ev.Level)
		case PrefetchIssue:
			// Background warms draw as light-green bars spanning the predicted
			// load, visibly thinner than demand work: idle-window filler.
			start := ev.At
			end := ev.At + units.Time(ev.Dur)
			if end < from || start > to {
				continue
			}
			if start < from {
				start = from
			}
			if end > to {
				end = to
			}
			y := topPad + int(ev.Node)*(rowH+rowGap)
			wpx := x(end) - x(start)
			if wpx < 0.5 {
				wpx = 0.5
			}
			fmt.Fprintf(w, `<rect x="%.2f" y="%d" width="%.2f" height="%d" fill="#7cc47c"/>`+"\n",
				x(start), y+3, wpx, rowH-8)
		case PrefetchHit, PrefetchCancel, PrefetchWaste:
			// Warm outcomes land in the footer band next to the admission
			// ticks: hits green, cancels gray, waste brown.
			if ev.At < from || ev.At > to {
				continue
			}
			color := "#2d8a2d"
			switch ev.Kind {
			case PrefetchCancel:
				color = "#888888"
			case PrefetchWaste:
				color = "#8a5a2d"
			}
			fmt.Fprintf(w, `<rect x="%.2f" y="%d" width="1.5" height="10" fill="%s"/>`+"\n",
				x(ev.At), footerY+2, color)
		case Shed, Reject, Throttle:
			// Admission pushback lands in the footer band: sheds dark red,
			// rejects red-orange, throttles amber ticks.
			if ev.At < from || ev.At > to {
				continue
			}
			color := "#aa2222"
			switch ev.Kind {
			case Reject:
				color = "#dd5522"
			case Throttle:
				color = "#ddaa22"
			}
			fmt.Fprintf(w, `<rect x="%.2f" y="%d" width="1.5" height="10" fill="%s"/>`+"\n",
				x(ev.At), footerY+2, color)
		}
	}
	fmt.Fprintln(w, `</svg>`)
	return nil
}
