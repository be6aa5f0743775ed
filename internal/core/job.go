// Package core implements the paper's primary contribution: the cost model
// for parallel volume rendering (§IV), the head node's three prediction
// tables with run-time correction (§V-B), and the periodic locality-aware
// scheduling heuristic of Algorithm 1 (§V-A).
//
// The baseline schedulers the paper compares against live in
// internal/baselines; both packages share the Scheduler interface and job
// model defined here.
package core

import (
	"fmt"

	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// JobID identifies a rendering job within one service run.
type JobID int64

// TenantID identifies the tenant (customer, team, billing account) a job
// belongs to. The zero tenant is the default for single-tenant deployments;
// the QoS layer (internal/qos) meters admission and queueing per tenant.
type TenantID int

// Class distinguishes the paper's two request kinds.
type Class int

// Job classes. Interactive jobs come from live user actions and must be
// scheduled immediately; batch jobs (animation frames, time-series renders)
// may be deferred.
const (
	Interactive Class = iota
	Batch
)

// String implements fmt.Stringer.
func (c Class) String() string {
	if c == Interactive {
		return "interactive"
	}
	return "batch"
}

// ActionID groups the jobs of one continuous user action (or one batch
// submission stream); the framerate metric (Definition 4) is computed per
// action.
type ActionID int

// Job is one rendering request J_i: a view of one dataset, decomposed into
// independent per-chunk tasks.
type Job struct {
	ID      JobID
	Class   Class
	Action  ActionID
	Tenant  TenantID
	Dataset volume.DatasetID
	// Issued is JI(i), the time the request entered the job queue.
	Issued units.Time
	// Tasks is the decomposition; populated by the engine from the dataset's
	// chunking before the job is first presented to a scheduler.
	Tasks []Task
	// Remaining counts tasks not yet assigned; the engine maintains it.
	Remaining int
}

// GroupSize returns the size of the job's render group for compositing-cost
// purposes: the number of tasks, since tasks land on distinct nodes in the
// common case.
func (j *Job) GroupSize() int { return len(j.Tasks) }

// Task is T_{i,j}: the piece of a job responsible for one data chunk.
type Task struct {
	Job   *Job
	Index int
	Chunk volume.ChunkID
	Size  units.Bytes
	// Assigned is set once a scheduler has placed the task; schedulers must
	// skip tasks that are already assigned.
	Assigned bool
	// PredictedExec is the execution time the head tables forecast when the
	// task was committed; the engine threads it into TaskResult so Correct
	// can measure prediction drift.
	PredictedExec units.Duration
}

// String renders the task as "J12/T3".
func (t *Task) String() string { return fmt.Sprintf("J%d/T%d", int64(t.Job.ID), t.Index) }

// NodeID indexes a rendering node R_k, 0-based.
type NodeID int

// Assignment places one task on one node. Assignments returned from a
// single Schedule call are enqueued in order on each node's FIFO.
type Assignment struct {
	Task *Task
	Node NodeID
	// CoScheduled marks a fractional-share guest placement (§5.13): the task
	// runs on the node's spare capacity, suspended whenever demand work is
	// active there. Only emitted by schedulers whose co-scheduling was
	// enabled via CoScheduleSetter, and only honoured by engines with the
	// fracshare layer on; the zero value is an ordinary assignment.
	CoScheduled bool
}

// Trigger tells the engine when to invoke a scheduler.
type Trigger int

// Trigger values. OnArrival schedulers (the FCFS family) run once per job as
// it enters the queue; Periodic schedulers (OURS, FS, SF) run every Cycle
// and see the whole queue. Periodic says when the queue is batched, not that
// an idle head must sit on a frame: the live head also runs a Periodic
// scheduler at the arrival of an interactive job that finds nothing else
// waiting and a node idle (service.Head.arrivalCycle, DESIGN.md §5.19); the
// simulator keeps the paper's strictly periodic trigger.
const (
	OnArrival Trigger = iota
	Periodic
)

// Scheduler is the policy interface every scheduling scheme implements.
type Scheduler interface {
	// Name identifies the scheme in experiment output ("OURS", "FCFSL", …).
	Name() string
	// Trigger reports when the engine should invoke Schedule.
	Trigger() Trigger
	// Cycle is the scheduling period ω for Periodic schedulers; ignored for
	// OnArrival schedulers.
	Cycle() units.Duration
	// Schedule examines the queued jobs (Backlog.Present: each with ≥1
	// unassigned task, not to be reordered) and returns task placements.
	// Unassigned tasks stay queued and are re-presented on the next
	// invocation. Schedule may mutate head's prediction tables to account
	// for its own assignments.
	Schedule(now units.Time, queue []*Job, head *HeadState) []Assignment
}

// DecompositionOverrider is an optional Scheduler extension for schemes that
// dictate their own data decomposition; FCFSU partitions every dataset into
// exactly one chunk per node.
type DecompositionOverrider interface {
	Decomposition(nodes int) volume.Decomposition
}

// TaskResult reports one finished task execution back to the head node so
// it can correct its predictions (§V-B).
type TaskResult struct {
	Task *Task
	Node NodeID
	// Hit reports whether the chunk was resident in the node's actual main
	// memory when the task started.
	Hit bool
	// Exec is the actual execution time; Predicted is what the head's
	// tables forecast at assignment time.
	Exec, Predicted units.Duration
	// Evicted lists chunks the node's actual cache dropped to load this
	// task's chunk.
	Evicted []volume.ChunkID
	// Finished is the task finish time TF.
	Finished units.Time
}
