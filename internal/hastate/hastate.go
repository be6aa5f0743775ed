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
//     dispatch/complete records, each applied as the task move the live
//     head made (core.Task.Move); completed-but-undelivered work is
//     journaled (core.TaskJournaled), so recovery never re-renders it.
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

// TaskState is the on-disk form of a task's core.TaskState in a job
// record: InfoOf writes it, and Replay reads it only when it builds the
// job.
type TaskState uint8

// Task states as recorded in job records.
const (
	// TaskQueued: not dispatched (or released after a presumed loss).
	TaskQueued TaskState = iota
	// TaskAssigned: dispatched to Node, completion not yet journaled.
	TaskAssigned
	// TaskDone: completion journaled; recovered as core.TaskJournaled and
	// never re-rendered unless its pixels never come.
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

// InfoOf is task t's durable record, t having been dispatched last to
// node: held records as assigned, done ones as journaled, and a queued task
// carries neither node nor prediction.
func InfoOf(t *core.Task, node core.NodeID) TaskInfo {
	if t.State == core.TaskQueued {
		return TaskInfo{Chunk: t.Chunk, Size: t.Size}
	}
	ti := TaskInfo{Chunk: t.Chunk, Size: t.Size, State: TaskAssigned, Node: node, Predicted: t.PredictedExec}
	if t.State == core.TaskJournaled || t.State == core.TaskDone {
		ti.State = TaskDone
	}
	return ti
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

// RecoveredJob pairs a job's durable record with the reconstructed
// scheduler-facing job, whose Remaining and PredictedExec match what the
// lost head held; a held task recovers assigned and a done one journaled.
// Replay rewrites a task's record (InfoOf) on each of its moves, so Rec is
// what the lost head would have snapshotted.
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
	// jobs whose every task is journaled are included so the service can
	// deliver retained results without re-rendering.
	Jobs []*RecoveredJob
	// QoS is the snapshot's controller state, passed through for the service
	// to Restore (nil when QoS was off).
	QoS       *qos.StateDump
	NextJobID core.JobID
	// At is the latest service-clock instant the state reflects: the
	// standby's clock must resume at or after it.
	At units.Time
}

// buildJob reconstructs the scheduler-facing job from a durable record: the
// one place a record's task states are read.
func buildJob(r *JobRecord) *core.Job {
	j := &core.Job{
		ID: r.ID, Class: r.Class, Action: r.Action,
		Tenant: r.Tenant, Dataset: r.Dataset, Issued: r.Issued,
	}
	j.Tasks = make([]core.Task, len(r.Tasks))
	for i := range r.Tasks {
		ti := &r.Tasks[i]
		j.Tasks[i] = core.Task{Job: j, Index: i, Chunk: ti.Chunk, Size: ti.Size, PredictedExec: ti.Predicted}
		switch ti.State {
		case TaskQueued:
			j.Remaining++
		case TaskAssigned:
			j.Tasks[i].State = core.TaskAssigned
		default:
			j.Tasks[i].State = core.TaskJournaled
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
		// task resolves the record's (job, task) pair for lifecycle records:
		// the durable record and the job's task.
		task := func() (*TaskInfo, *core.Task, error) {
			rj := byID[jobID]
			if rj == nil {
				return nil, nil, fail("unknown job")
			}
			i := int(rec.Task)
			if i < 0 || i >= len(rj.Rec.Tasks) {
				return nil, nil, fail("task index out of range (%d tasks)", len(rj.Rec.Tasks))
			}
			return &rj.Rec.Tasks[i], &rj.Job.Tasks[i], nil
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
			ti, t, err := task()
			if err != nil {
				return nil, err
			}
			// A re-dispatch — of a task presumed lost past its deadline, or of
			// a journaled one whose pixels never came — arrives with the task
			// still out of the queue: the live head requeued it first, which
			// it does not journal because it mutates no tables.
			if t.State != core.TaskQueued {
				t.Move(core.TaskQueued)
			}
			t.Move(core.TaskAssigned)
			pred := st.Tables.CommitAssign(t, node, at)
			if pred != body.Predicted {
				return nil, fail("replayed prediction %v != journaled %v — tables diverged", pred, body.Predicted)
			}
			*ti = InfoOf(t, node)

		case journal.KindComplete:
			var body CompleteBody
			if err := DecodeBody(rec.Body, &body); err != nil {
				return nil, fail("decoding complete: %v", err)
			}
			ti, t, err := task()
			if err != nil {
				return nil, err
			}
			if t.State == core.TaskJournaled {
				return nil, fail("duplicate completion")
			}
			// A completion for a released task is the live head's reclaim
			// path: the original execution finished after the deadline fired.
			if t.State == core.TaskQueued {
				t.Move(core.TaskAssigned)
			}
			if body.Touch {
				st.Tables.DemandTouchPrefetched(t.Chunk, node)
			}
			st.Tables.Correct(core.TaskResult{
				Task: t, Node: node, Hit: body.Hit,
				Exec: body.Exec, Predicted: t.PredictedExec,
				Evicted: body.Evicted, Finished: at,
			}, at)
			t.Move(core.TaskJournaled)
			*ti = InfoOf(t, node)

		case journal.KindFail:
			dropJob(jobID)

		case journal.KindRehome:
			// The live head declared node down: MarkFailed re-homed its
			// chunks, and every in-flight task it held was requeued. A
			// journaled task stays journaled: whether its pixels were on
			// the node, the journal does not say.
			st.Tables.MarkFailed(node)
			for _, rj := range st.Jobs {
				for i := range rj.Job.Tasks {
					if t, ti := &rj.Job.Tasks[i], &rj.Rec.Tasks[i]; t.State == core.TaskAssigned && ti.Node == node {
						t.Move(core.TaskQueued)
						*ti = InfoOf(t, node)
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
