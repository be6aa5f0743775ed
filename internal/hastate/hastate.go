// Package hastate is the head node's durable dispatch state (DESIGN.md
// §5.10): a deterministic snapshot of everything a restarted or warm-standby
// head needs — the core prediction tables, the QoS controller's durable
// state, and the queued + in-flight jobs — plus the replay engine that
// applies an internal/journal mutation log on top of a snapshot.
//
// The design splits state by how it is recovered:
//
//   - Core tables (Cache/Available/Estimate, health, homes/pressure,
//     prefetch accuracy) are reconstructed *exactly*: the snapshot captures
//     them in sorted slice form (core.TableDump) and the journal replays the
//     very rules the live head ran — CommitAssign at the recorded time,
//     Correct with the recorded facts, LandWarm, MarkFailed/Repaired/
//     Suspect/Up, ResyncCache — on tables with no observers attached, so
//     replay is deep-equal to the lost head by construction.
//   - Jobs are reconstructed exactly from admit records plus per-task
//     dispatch/complete records; completed-but-undelivered work is
//     identified by task state so recovery never re-renders it.
//   - QoS soft state (token balances, degradation ladder, accounting) comes
//     from the snapshot as-of its capture; session in-flight depths and
//     queue contents are *derived* from the recovered jobs, which keeps the
//     admission bound exact even though rate-limiter balances may lag by at
//     most one snapshot interval.
package hastate

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"

	"vizsched/internal/cache"
	"vizsched/internal/core"
	"vizsched/internal/journal"
	"vizsched/internal/qos"
	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// TaskState is one task's position in the dispatch lifecycle.
type TaskState uint8

// Task lifecycle states as recorded in job records.
const (
	// TaskQueued: not dispatched (or released after a presumed loss).
	TaskQueued TaskState = iota
	// TaskAssigned: dispatched to Node, completion not yet journaled.
	TaskAssigned
	// TaskDone: completion journaled; never re-rendered by recovery.
	TaskDone
)

// TaskInfo is one task's durable record inside a JobRecord.
type TaskInfo struct {
	Chunk volume.ChunkID
	Size  units.Bytes
	State TaskState
	// Node and Predicted are meaningful for TaskAssigned and TaskDone.
	Node      core.NodeID
	Predicted units.Duration
}

// JobRecord is the durable form of one admitted job. Req is an opaque
// service-layer payload (the original render request, encoded by the
// caller); hastate never interprets it, which keeps this package free of
// service dependencies.
type JobRecord struct {
	ID      core.JobID
	Key     uint64 // client idempotency key; 0 when the client sent none
	Class   core.Class
	Action  core.ActionID
	Tenant  core.TenantID
	Dataset volume.DatasetID
	Issued  units.Time
	Req     []byte
	Tasks   []TaskInfo
}

// Done reports whether every task has a journaled completion.
func (r *JobRecord) Done() bool {
	for i := range r.Tasks {
		if r.Tasks[i].State != TaskDone {
			return false
		}
	}
	return true
}

// Snapshot is the head's complete durable state at one instant. Every field
// is slice-backed and deterministically ordered, so equal heads encode to
// byte-identical snapshots.
type Snapshot struct {
	// At is the head's service clock when the snapshot was taken; journal
	// records at or after At apply on top.
	At        units.Time
	NextJobID core.JobID
	Tables    *core.TableDump
	// QoS is nil when the admission layer is off.
	QoS *qos.StateDump
	// Jobs holds queued and in-flight jobs in admission order.
	Jobs []JobRecord
}

// Journal record bodies. The fixed journal.Record fields carry kind, job ID,
// task index, node, and timestamp; bodies carry what else each mutation
// needs.

// AdmitBody accompanies journal.KindAdmit: the full job record, all tasks
// TaskQueued.
type AdmitBody struct {
	Job JobRecord
}

// DispatchBody accompanies journal.KindDispatch. Predicted is the execution
// time CommitAssign returned on the live head; replay recomputes it from the
// reconstructed tables and fails loudly on a mismatch — a divergence here
// means the journal and tables have drifted apart.
type DispatchBody struct {
	Predicted units.Duration
}

// CompleteBody accompanies journal.KindComplete: the facts the live head fed
// into Correct. Touch records whether the head attempted a
// DemandTouchPrefetched settle (prefetching on and the task hit).
type CompleteBody struct {
	Hit     bool
	Touch   bool
	Exec    units.Duration
	Evicted []volume.ChunkID
}

// PrefetchBody accompanies journal.KindPrefetch: a worker-confirmed warm.
type PrefetchBody struct {
	Chunk   volume.ChunkID
	Size    units.Bytes
	Loaded  bool
	Evicted []volume.ChunkID
}

// ResyncBody accompanies journal.KindResync: the cache contents a
// reconnecting worker announced, adopted wholesale via ResyncCache.
type ResyncBody struct {
	Entries []cache.Entry
}

// EncodeBody gob-encodes a journal record body.
func EncodeBody(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeBody gob-decodes a journal record body.
func DecodeBody(raw []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(raw)).Decode(v)
}

// Snapshot encoding: a fixed magic + version header, a CRC32 over the gob
// payload, then the payload. Gob is deterministic for the slice-only shapes
// above, so equal snapshots produce byte-identical encodings.

const snapMagic = "VZHA"

// SnapVersion is the snapshot format version.
const SnapVersion = 1

// ErrBadSnapshot reports a snapshot that failed structural or checksum
// validation.
var ErrBadSnapshot = fmt.Errorf("hastate: bad snapshot")

// Encode serializes the snapshot with an integrity header.
func (s *Snapshot) Encode() ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(s); err != nil {
		return nil, fmt.Errorf("hastate: encoding snapshot: %w", err)
	}
	out := make([]byte, 0, len(snapMagic)+8+payload.Len())
	out = append(out, snapMagic...)
	out = binary.LittleEndian.AppendUint32(out, SnapVersion)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload.Bytes()))
	return append(out, payload.Bytes()...), nil
}

// DecodeSnapshot parses and validates an encoded snapshot.
func DecodeSnapshot(raw []byte) (*Snapshot, error) {
	hdr := len(snapMagic) + 8
	if len(raw) < hdr || string(raw[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("%w: missing header", ErrBadSnapshot)
	}
	if v := binary.LittleEndian.Uint32(raw[len(snapMagic):]); v != SnapVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", ErrBadSnapshot, v, SnapVersion)
	}
	sum := binary.LittleEndian.Uint32(raw[len(snapMagic)+4:])
	payload := raw[hdr:]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadSnapshot)
	}
	var s Snapshot
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&s); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return &s, nil
}

// RecoveredJob pairs a job's durable record (with final per-task states)
// with the reconstructed scheduler-facing job: Assigned flags, Remaining,
// and PredictedExec all match what the lost head held.
type RecoveredJob struct {
	Rec *JobRecord
	Job *core.Job
}

// State is the outcome of Replay: everything a standby head needs to resume
// dispatching where the lost head stopped.
type State struct {
	// Tables is deep-equal to the lost head's core.HeadState.
	Tables *core.HeadState
	// Jobs holds surviving (admitted, not failed) jobs in admission order;
	// fully-Done jobs are included so the service can deliver retained
	// results without re-rendering.
	Jobs []*RecoveredJob
	// QoS is the snapshot's controller state, passed through for the service
	// to Restore (nil when QoS was off).
	QoS       *qos.StateDump
	NextJobID core.JobID
	// At is the latest service-clock instant the state reflects: the
	// standby's clock must resume at or after it.
	At units.Time
}

// buildJob reconstructs the scheduler-facing job from a durable record.
func buildJob(r *JobRecord) *core.Job {
	j := &core.Job{
		ID: r.ID, Class: r.Class, Action: r.Action,
		Tenant: r.Tenant, Dataset: r.Dataset, Issued: r.Issued,
	}
	j.Tasks = make([]core.Task, len(r.Tasks))
	for i := range r.Tasks {
		ti := &r.Tasks[i]
		j.Tasks[i] = core.Task{Job: j, Index: i, Chunk: ti.Chunk, Size: ti.Size}
		if ti.State == TaskQueued {
			j.Remaining++
		} else {
			j.Tasks[i].Assigned = true
			j.Tasks[i].PredictedExec = ti.Predicted
		}
	}
	return j
}

// Replay reconstructs head state from a snapshot plus the journal records
// written after it. The model is supplied by the caller (cost models carry
// function-valued configuration that does not serialize). Replay applies
// each record through the same core mutations the live head performed, so
// the returned tables are deep-equal to the lost head's; any structural
// inconsistency (unknown job, out-of-order lifecycle, prediction mismatch)
// returns an error rather than silently diverging.
func Replay(snap *Snapshot, records []journal.Record, model core.CostModel) (*State, error) {
	st := &State{
		Tables:    core.LoadTables(snap.Tables, model),
		QoS:       snap.QoS,
		NextJobID: snap.NextJobID,
		At:        snap.At,
	}
	byID := make(map[core.JobID]*RecoveredJob, len(snap.Jobs))
	addJob := func(rec *JobRecord) error {
		if byID[rec.ID] != nil {
			return fmt.Errorf("hastate: duplicate job %d", rec.ID)
		}
		rj := &RecoveredJob{Rec: rec, Job: buildJob(rec)}
		st.Jobs = append(st.Jobs, rj)
		byID[rec.ID] = rj
		if rec.ID >= st.NextJobID {
			st.NextJobID = rec.ID
		}
		return nil
	}
	for i := range snap.Jobs {
		if err := addJob(&snap.Jobs[i]); err != nil {
			return nil, err
		}
	}
	dropJob := func(id core.JobID) {
		if byID[id] == nil {
			return
		}
		delete(byID, id)
		for i, rj := range st.Jobs {
			if rj.Rec.ID == id {
				st.Jobs = append(st.Jobs[:i], st.Jobs[i+1:]...)
				break
			}
		}
	}

	for ri := range records {
		rec := &records[ri]
		at := units.Time(rec.At)
		if at > st.At {
			st.At = at
		}
		jobID := core.JobID(rec.Job)
		node := core.NodeID(rec.Node)
		fail := func(format string, args ...any) error {
			return fmt.Errorf("hastate: record %d (%v job=%d task=%d node=%d): %s",
				ri, rec.Kind, rec.Job, rec.Task, rec.Node, fmt.Sprintf(format, args...))
		}
		// task resolves the record's (job, task) pair for lifecycle records.
		task := func() (*RecoveredJob, *TaskInfo, *core.Task, error) {
			rj := byID[jobID]
			if rj == nil {
				return nil, nil, nil, fail("unknown job")
			}
			i := int(rec.Task)
			if i < 0 || i >= len(rj.Rec.Tasks) {
				return nil, nil, nil, fail("task index out of range (%d tasks)", len(rj.Rec.Tasks))
			}
			return rj, &rj.Rec.Tasks[i], &rj.Job.Tasks[i], nil
		}

		switch rec.Kind {
		case journal.KindAdmit:
			var body AdmitBody
			if err := DecodeBody(rec.Body, &body); err != nil {
				return nil, fail("decoding admit: %v", err)
			}
			jr := body.Job
			if err := addJob(&jr); err != nil {
				return nil, err
			}

		case journal.KindDispatch:
			var body DispatchBody
			if err := DecodeBody(rec.Body, &body); err != nil {
				return nil, fail("decoding dispatch: %v", err)
			}
			rj, ti, t, err := task()
			if err != nil {
				return nil, err
			}
			if ti.State == TaskDone {
				return nil, fail("dispatch of a completed task")
			}
			// A re-dispatch after a presumed loss arrives with the task still
			// TaskAssigned; the release itself is not journaled because it
			// mutates no tables. Normalize to queued first so Remaining
			// bookkeeping mirrors the live head's release-then-assign pair.
			if ti.State == TaskAssigned {
				ti.State = TaskQueued
				t.Assigned = false
				rj.Job.Remaining++
			}
			t.Assigned = true
			rj.Job.Remaining--
			pred := st.Tables.CommitAssign(t, node, at)
			if pred != body.Predicted {
				return nil, fail("replayed prediction %v != journaled %v — tables diverged", pred, body.Predicted)
			}
			ti.State, ti.Node, ti.Predicted = TaskAssigned, node, pred

		case journal.KindComplete:
			var body CompleteBody
			if err := DecodeBody(rec.Body, &body); err != nil {
				return nil, fail("decoding complete: %v", err)
			}
			rj, ti, t, err := task()
			if err != nil {
				return nil, err
			}
			if ti.State == TaskDone {
				return nil, fail("duplicate completion")
			}
			// A completion for a released task is the live head's reclaim
			// path: the original execution finished after the deadline fired.
			if ti.State == TaskQueued {
				t.Assigned = true
				rj.Job.Remaining--
			}
			if body.Touch {
				st.Tables.DemandTouchPrefetched(t.Chunk, node)
			}
			st.Tables.Correct(core.TaskResult{
				Task: t, Node: node, Hit: body.Hit,
				Exec: body.Exec, Predicted: t.PredictedExec,
				Evicted: body.Evicted, Finished: at,
			}, at)
			ti.State, ti.Node = TaskDone, node

		case journal.KindFail:
			dropJob(jobID)

		case journal.KindRehome:
			// The live head declared node down: MarkFailed re-homed its
			// chunks, and every in-flight task it held was released.
			st.Tables.MarkFailed(node)
			for _, rj := range st.Jobs {
				for i := range rj.Rec.Tasks {
					ti := &rj.Rec.Tasks[i]
					if ti.State == TaskAssigned && ti.Node == node {
						ti.State, ti.Predicted = TaskQueued, 0
						rj.Job.Tasks[i].Assigned = false
						rj.Job.Tasks[i].PredictedExec = 0
						rj.Job.Remaining++
					}
				}
			}

		case journal.KindRepair:
			st.Tables.MarkRepaired(node, at)

		case journal.KindSuspect:
			st.Tables.MarkSuspect(node)

		case journal.KindUp:
			st.Tables.MarkUp(node)

		case journal.KindResync:
			var body ResyncBody
			if err := DecodeBody(rec.Body, &body); err != nil {
				return nil, fail("decoding resync: %v", err)
			}
			st.Tables.ResyncCache(node, body.Entries)

		case journal.KindPrefetch:
			var body PrefetchBody
			if err := DecodeBody(rec.Body, &body); err != nil {
				return nil, fail("decoding prefetch: %v", err)
			}
			if !body.Loaded {
				break // a cancelled warm never touched the tables
			}
			st.Tables.LandWarm(body.Chunk, node, body.Size, body.Evicted)

		default:
			return nil, fail("unknown record kind")
		}
	}
	return st, nil
}
