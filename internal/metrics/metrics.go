// Package metrics collects and summarizes the quantities the paper's
// evaluation reports: per-class job latency (Definition 3), per-action
// framerate (Definition 4), batch working time (Definition 2), data-reuse
// hit rate, and scheduling cost (Table III). All aggregation is streaming —
// scenario 4 completes 400k+ jobs and storing per-job samples would
// dominate memory.
package metrics

import (
	"fmt"
	"sort"
	"time"

	"vizsched/internal/units"
)

// Running accumulates count/mean/min/max of a duration-valued stream.
type Running struct {
	N         int64
	sum       float64
	Min, Max  units.Duration
	populated bool
}

// Add folds one observation in.
func (r *Running) Add(d units.Duration) {
	r.N++
	r.sum += float64(d)
	if !r.populated || d < r.Min {
		r.Min = d
	}
	if !r.populated || d > r.Max {
		r.Max = d
	}
	r.populated = true
}

// Mean returns the average, or zero with no observations.
func (r *Running) Mean() units.Duration {
	if r.N == 0 {
		return 0
	}
	return units.Duration(r.sum / float64(r.N))
}

// ActionStat tracks one action's framerate per Definition 4: over the n
// completed jobs of the action, framerate = (n−1)/(JF(n)−JF(1)).
type ActionStat struct {
	Completed   int64
	FirstFinish units.Time
	LastFinish  units.Time
	// FirstLatency is the latency of the action's first completed job — the
	// cold-start cost a user feels when a session starts, and the number
	// predictive prefetching (§5.8) attacks.
	FirstLatency units.Duration
}

// Finish folds one job completion in. Finish times from a DES arrive in
// nondecreasing order, so first/last tracking suffices.
func (a *ActionStat) Finish(at units.Time) {
	if a.Completed == 0 {
		a.FirstFinish = at
	}
	a.LastFinish = at
	a.Completed++
}

// Framerate returns the achieved frames per second, or zero when fewer than
// two jobs completed.
func (a *ActionStat) Framerate() float64 {
	if a.Completed < 2 {
		return 0
	}
	span := a.LastFinish.Sub(a.FirstFinish).Seconds()
	if span <= 0 {
		return 0
	}
	return float64(a.Completed-1) / span
}

// ClassStats aggregates one job class.
type ClassStats struct {
	Issued    int64
	Completed int64
	Latency   Running // JF − JI
	Working   Running // JF − JS (the paper's batch "working time")
	// LatencyHist captures the latency distribution for tail analysis.
	LatencyHist Histogram
}

// Report is the full result of one scenario run under one scheduler — one
// bar group of Figs. 4–7 plus one row of Table III.
type Report struct {
	Scheduler string
	Horizon   units.Time

	Interactive ClassStats
	Batch       ClassStats
	// actions tracks per-action framerates for interactive actions.
	actions map[int]*ActionStat

	// Hits and Misses count task accesses by actual cache residency.
	Hits, Misses int64
	// Loads counts disk loads performed; equal to Misses in the serial node
	// model, but smaller under overlapped I/O where waiting tasks coalesce
	// onto one load.
	Loads int64
	// Evictions counts actual cache evictions across all nodes (swap volume).
	Evictions int64

	// SchedWall is real wall-clock time spent inside Schedule calls;
	// SchedInvocations counts calls; JobsScheduled counts distinct jobs that
	// received at least one assignment.
	SchedWall        time.Duration
	SchedInvocations int64
	JobsScheduled    int64

	// BusyNodeTime accumulates node-seconds of task execution for the
	// utilization figure.
	BusyNodeTime units.Duration
	Nodes        int

	// GuardIdle and QueueIdle split sampled node idleness while batch work is
	// pending (§5.13). GuardIdle is idleness attributable to OURS's ε-guard:
	// the node was recently interactive and every pending batch group would
	// be a cache miss there, so filling it would risk the next frame.
	// QueueIdle is every other sampled idle-with-pending-work interval.
	// Sampled once per scheduling cycle for periodic schedulers; both stay
	// zero for on-arrival schedulers.
	GuardIdle units.Duration
	QueueIdle units.Duration

	// BatchStretch accumulates per-batch-job stretch: (JF − JI) divided by
	// the job's largest task execution — the slowdown a job suffered relative
	// to running alone, the DFRS comparison's fairness metric.
	BatchStretch FloatRunning

	// Recovery aggregates the run's fault-tolerance outcomes (§VI-D).
	Recovery Recovery

	// tenants tracks per-tenant issue/completion streams for fairness
	// analysis; populated only for multi-tenant workloads (see tenant.go).
	tenants map[int]*TenantStat
	// QoS carries the admission/degradation outcome when the run had the
	// QoS subsystem enabled; nil otherwise.
	QoS *QoSOutcome
	// Prefetch carries the chunk-warming outcome when the run had the
	// prefetching layer enabled; nil otherwise.
	Prefetch *PrefetchOutcome
	// Autoscale carries the elastic-fleet outcome when the run had the
	// autoscaler enabled; nil otherwise.
	Autoscale *AutoscaleOutcome
	// FracShare carries the fractional-capacity outcome when the run had the
	// fracshare layer enabled; nil otherwise.
	FracShare *FracShareOutcome
}

// Recovery tracks what faults cost a run: how much work had to be
// re-dispatched, how long nodes stayed down (MTTR), and how deep and how
// long the interactive framerate dipped below a target while the cluster
// was degraded. Frame completions are bucketed into one-second windows so
// the dip is measurable without storing per-job samples.
type Recovery struct {
	// Faults counts injected fault events (each flap cycle counts once).
	Faults int64
	// TasksRedispatched counts tasks returned to the queue by node crashes.
	TasksRedispatched int64
	// Downtime accumulates per-interval node down time; Mean() is MTTR.
	Downtime Running

	// ChunksRehomed counts chunks whose home moved to a warm surviving
	// replica after a crash; ChunksReseeded counts chunks that lost every
	// replica and had to be re-read from disk (§5.6).
	ChunksRehomed  int64
	ChunksReseeded int64
	// EffectiveDowntime accumulates per-interval *service-impact* downtime:
	// when a crash's orphaned chunks were all re-homed warm, the interval
	// ends at the re-home, not at the node's later cold repair — the window
	// between re-home and MarkRepaired is warm-restore time the service
	// never felt, and folding it in would double-count the outage.
	// ServiceMTTR is its mean; without re-homing it equals Downtime.
	EffectiveDowntime Running

	// Control-plane (head) outages (§5.10). The head's dispatch state is
	// journaled, so a crash defers work instead of losing it: arrivals
	// buffer until the standby takes over, completion reports are retained
	// on the workers and reconciled at repair.
	HeadCrashes int64
	// ControlOutage accumulates per-outage control-plane downtime; its mean
	// is the control-plane MTTR the hasweep experiment reports.
	ControlOutage Running
	// ArrivalsDeferred counts requests that arrived during a head outage
	// and were admitted at repair; ResultsDeferred counts completion
	// reports workers retained across an outage or partition and the head
	// reconciled afterwards — committed work that survived re-render-free.
	ArrivalsDeferred int64
	ResultsDeferred  int64
	// CommittedAtCrash is the number of jobs fully committed when the head
	// last went down; CommittedLost accumulates committed jobs whose
	// completions vanished across an outage — structurally zero under
	// snapshot+journal recovery, and asserted zero by the failover tests.
	CommittedAtCrash int64
	CommittedLost    int64
	headDownAt       units.Time
	headOpen         bool

	// downAt tracks open down intervals per node; rehomedAt caps an open
	// interval's service impact at the re-home time.
	downAt    map[int]units.Time
	rehomedAt map[int]units.Time
	// firstFault is when degradation began; the dip scan starts there.
	firstFault units.Time
	faulted    bool
	// frames counts interactive job completions per one-second window.
	frames     map[int64]int64
	lastWindow int64
}

// FaultInjected records one fault beginning at now.
func (rc *Recovery) FaultInjected(now units.Time) {
	rc.Faults++
	if !rc.faulted {
		rc.faulted = true
		rc.firstFault = now
	}
}

// TaskRedispatched counts one crash-requeued task.
func (rc *Recovery) TaskRedispatched() { rc.TasksRedispatched++ }

// HeadDown opens a control-plane outage at now, recording how many jobs
// were committed at the crash so HeadRepaired can verify none were lost.
func (rc *Recovery) HeadDown(now units.Time, committed int64) {
	if rc.headOpen {
		return
	}
	rc.HeadCrashes++
	rc.headOpen = true
	rc.headDownAt = now
	rc.CommittedAtCrash = committed
}

// HeadRepaired closes the open control-plane outage, folding its span into
// ControlOutage. committed is the job-completion count after the standby
// reconciled the workers' retained reports; any shortfall against the
// at-crash count is committed loss (zero under journaled recovery).
func (rc *Recovery) HeadRepaired(now units.Time, committed int64) {
	if !rc.headOpen {
		return
	}
	rc.headOpen = false
	rc.ControlOutage.Add(now.Sub(rc.headDownAt))
	if lost := rc.CommittedAtCrash - committed; lost > 0 {
		rc.CommittedLost += lost
	}
}

// ArrivalDeferred counts one request buffered through a head outage.
func (rc *Recovery) ArrivalDeferred() { rc.ArrivalsDeferred++ }

// ResultDeferred counts one completion report retained on its worker while
// the head was unreachable and reconciled afterwards.
func (rc *Recovery) ResultDeferred() { rc.ResultsDeferred++ }

// ControlMTTR is the mean control-plane outage duration; zero without head
// faults.
func (rc *Recovery) ControlMTTR() units.Duration { return rc.ControlOutage.Mean() }

// NodeDown opens a down interval for node k.
func (rc *Recovery) NodeDown(k int, now units.Time) {
	if rc.downAt == nil {
		rc.downAt = make(map[int]units.Time)
	}
	if _, open := rc.downAt[k]; !open {
		rc.downAt[k] = now
	}
}

// NodeRepaired closes node k's down interval, folding the full down→repair
// span into Downtime and the re-home-capped span into EffectiveDowntime:
// once re-homing restored the node's chunks warm elsewhere, MarkRepaired
// returning the node cold must not re-count the warm-restore window.
func (rc *Recovery) NodeRepaired(k int, now units.Time) {
	if at, open := rc.downAt[k]; open {
		rc.Downtime.Add(now.Sub(at))
		end := now
		if re, ok := rc.rehomedAt[k]; ok && re < end {
			end = re
		}
		rc.EffectiveDowntime.Add(end.Sub(at))
		delete(rc.downAt, k)
	}
	delete(rc.rehomedAt, k)
}

// ChunksMoved records one crash's re-homing outcome (§5.6).
func (rc *Recovery) ChunksMoved(rehomed, reseeded int) {
	rc.ChunksRehomed += int64(rehomed)
	rc.ChunksReseeded += int64(reseeded)
}

// NodeRehomed records that node k's orphaned chunks were all re-homed warm
// at now: the outage's service impact ends here. Only meaningful while k's
// down interval is open; calls outside one are ignored.
func (rc *Recovery) NodeRehomed(k int, now units.Time) {
	if _, open := rc.downAt[k]; !open {
		return
	}
	if rc.rehomedAt == nil {
		rc.rehomedAt = make(map[int]units.Time)
	}
	if _, dup := rc.rehomedAt[k]; !dup {
		rc.rehomedAt[k] = now
	}
}

// Frame buckets one interactive completion into its one-second window.
func (rc *Recovery) Frame(finished units.Time) {
	if rc.frames == nil {
		rc.frames = make(map[int64]int64)
	}
	w := int64(finished) / int64(units.Second)
	rc.frames[w]++
	if w > rc.lastWindow {
		rc.lastWindow = w
	}
}

// MTTR is the mean down-interval duration over repaired nodes; zero when
// nothing was repaired.
func (rc *Recovery) MTTR() units.Duration { return rc.Downtime.Mean() }

// ServiceMTTR is the mean *service-impact* down-interval duration: outages
// fully absorbed by warm re-homing end at the re-home, the rest at repair.
// Equal to MTTR when no re-homing happened.
func (rc *Recovery) ServiceMTTR() units.Duration { return rc.EffectiveDowntime.Mean() }

// FramerateDip scans the one-second windows from the first fault to the last
// completed frame and reports how far below target the worst window fell
// (depth, in fps) and the total time spent below target. Without faults both
// are zero: a dip is only attributed to degradation it could stem from.
func (rc *Recovery) FramerateDip(target float64) (depth float64, below units.Duration) {
	if !rc.faulted || target <= 0 {
		return 0, 0
	}
	from := int64(rc.firstFault) / int64(units.Second)
	for w := from; w <= rc.lastWindow; w++ {
		fps := float64(rc.frames[w])
		if fps < target {
			below += units.Second
			if d := target - fps; d > depth {
				depth = d
			}
		}
	}
	return depth, below
}

// NewReport returns an empty report for the named scheduler.
func NewReport(scheduler string, nodes int) *Report {
	return &Report{Scheduler: scheduler, Nodes: nodes, actions: make(map[int]*ActionStat)}
}

// JobIssued records a job entering the system.
func (r *Report) JobIssued(interactive bool) {
	if interactive {
		r.Interactive.Issued++
	} else {
		r.Batch.Issued++
	}
}

// JobCompleted records a finished job.
func (r *Report) JobCompleted(interactive bool, action int, issued, started, finished units.Time) {
	cs := &r.Batch
	if interactive {
		cs = &r.Interactive
	}
	cs.Completed++
	cs.Latency.Add(finished.Sub(issued))
	cs.LatencyHist.Add(finished.Sub(issued))
	cs.Working.Add(finished.Sub(started))
	if interactive {
		a := r.actions[action]
		if a == nil {
			a = &ActionStat{}
			r.actions[action] = a
		}
		if a.Completed == 0 {
			a.FirstLatency = finished.Sub(issued)
		}
		a.Finish(finished)
		r.Recovery.Frame(finished)
	}
}

// TaskAccess records a cache hit or miss.
func (r *Report) TaskAccess(hit bool) {
	if hit {
		r.Hits++
	} else {
		r.Misses++
	}
}

// BusyAdd accumulates node busy time.
func (r *Report) BusyAdd(d units.Duration) { r.BusyNodeTime += d }

// EvictionsAdd accumulates cache evictions.
func (r *Report) EvictionsAdd(n int) { r.Evictions += int64(n) }

// LoadAdd records one disk load.
func (r *Report) LoadAdd() { r.Loads++ }

// IdleSampled attributes one cycle's worth of idle-with-pending-batch time on
// one node to the ε-guard (guard=true) or to ordinary queueing.
func (r *Report) IdleSampled(guard bool, d units.Duration) {
	if guard {
		r.GuardIdle += d
	} else {
		r.QueueIdle += d
	}
}

// StretchAdd folds one batch job's stretch in: latency over its largest
// task's execution time. Non-positive bases are skipped.
func (r *Report) StretchAdd(latency, base units.Duration) {
	if base <= 0 {
		return
	}
	r.BatchStretch.Add(float64(latency) / float64(base))
}

// ScheduleCall records one scheduler invocation.
func (r *Report) ScheduleCall(wall time.Duration, jobsAssigned int) {
	r.SchedWall += wall
	r.SchedInvocations++
	r.JobsScheduled += int64(jobsAssigned)
}

// HitRate returns hits/(hits+misses), or zero with no executions.
func (r *Report) HitRate() float64 {
	total := r.Hits + r.Misses
	if total == 0 {
		return 0
	}
	return float64(r.Hits) / float64(total)
}

// MeanFramerate averages the per-action framerates over interactive actions
// that completed at least two jobs — the bar heights of Figs. 4–7.
// Summation runs in action order: float addition is not associative, so
// iterating the map directly would make the last bits run-dependent.
func (r *Report) MeanFramerate() float64 {
	ids := make([]int, 0, len(r.actions))
	for id := range r.actions {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var sum float64
	var n int
	for _, id := range ids {
		if f := r.actions[id].Framerate(); f > 0 {
			sum += f
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanFirstFrameLatency averages each interactive action's first-frame
// latency — the session cold-start cost. Summation runs in action order for
// the same bit-determinism reason as MeanFramerate.
func (r *Report) MeanFirstFrameLatency() units.Duration {
	ids := make([]int, 0, len(r.actions))
	for id := range r.actions {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var sum float64
	var n int
	for _, id := range ids {
		if a := r.actions[id]; a.Completed > 0 {
			sum += float64(a.FirstLatency)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return units.Duration(sum / float64(n))
}

// ActionCount returns the number of interactive actions observed.
func (r *Report) ActionCount() int { return len(r.actions) }

// AvgSchedCostPerJob is Table III's "avg. cost": wall time per scheduled job.
func (r *Report) AvgSchedCostPerJob() time.Duration {
	if r.JobsScheduled == 0 {
		return 0
	}
	return r.SchedWall / time.Duration(r.JobsScheduled)
}

// Utilization returns mean node busy fraction over the horizon.
func (r *Report) Utilization() float64 {
	if r.Nodes == 0 || r.Horizon == 0 {
		return 0
	}
	return r.BusyNodeTime.Seconds() / (float64(r.Nodes) * r.Horizon.Seconds())
}

// String renders a one-line summary.
func (r *Report) String() string {
	return fmt.Sprintf(
		"%-6s fps=%6.2f  int-lat=%9v  batch-lat=%9v  work=%9v  hit=%6.2f%%  sched=%7v/job  util=%4.0f%%",
		r.Scheduler, r.MeanFramerate(),
		r.Interactive.Latency.Mean().Std().Round(time.Millisecond),
		r.Batch.Latency.Mean().Std().Round(time.Millisecond),
		r.Batch.Working.Mean().Std().Round(time.Millisecond),
		100*r.HitRate(),
		r.AvgSchedCostPerJob().Round(100*time.Nanosecond),
		100*r.Utilization(),
	)
}
