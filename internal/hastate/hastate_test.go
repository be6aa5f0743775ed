package hastate

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"vizsched/internal/core"
	"vizsched/internal/journal"
	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// driver mimics a live head: every table mutation it performs is also
// journaled, exactly as the service layer does, and every task moves by the
// core move the head makes, so Replay against a mid-stream snapshot
// must land deep-equal.
type driver struct {
	t      *testing.T
	rng    *rand.Rand
	now    units.Time
	tables *core.HeadState
	// jobs/cjobs mirror Replay's RecoveredJob pair: the durable record, its
	// tasks as InfoOf writes them, and the scheduler-facing job, kept in
	// lockstep; b is the head's backlog.
	jobs   []*JobRecord
	cjobs  map[core.JobID]*core.Job
	b      core.Backlog
	nextID core.JobID
	jw     *journal.Writer
	sink   *bytes.Buffer
	// lastAt is the clock of the last journaled record: the freshest
	// instant a replay can possibly reflect.
	lastAt units.Time
}

func newDriver(t *testing.T, seed int64, nodes int) *driver {
	sink := &bytes.Buffer{}
	return &driver{
		t:      t,
		rng:    rand.New(rand.NewSource(seed)),
		tables: core.NewHeadState(nodes, 16*units.MB, core.DefaultCostModel()),
		cjobs:  make(map[core.JobID]*core.Job),
		jw:     journal.NewWriter(sink, 4),
		sink:   sink,
	}
}

func (d *driver) journal(k journal.Kind, job core.JobID, task int, node core.NodeID, body any) {
	var raw []byte
	var err error
	if body != nil {
		raw, err = EncodeBody(body)
	}
	if err != nil {
		d.t.Fatalf("encoding %v body: %v", k, err)
	}
	err = d.jw.Append(journal.Record{
		Kind: k, Job: uint64(job), Task: int32(task), Node: int32(node),
		At: int64(d.now), Body: raw,
	})
	if err != nil {
		d.t.Fatalf("journaling %v: %v", k, err)
	}
	d.lastAt = d.now
}

func (d *driver) upNodes() []core.NodeID {
	var up []core.NodeID
	for k := 0; k < d.tables.Nodes(); k++ {
		if d.tables.Health(core.NodeID(k)) == core.HealthUp {
			up = append(up, core.NodeID(k))
		}
	}
	return up
}

func (d *driver) chunk() volume.ChunkID {
	return volume.ChunkID{Dataset: volume.DatasetID(1 + d.rng.Intn(2)), Index: d.rng.Intn(12)}
}

func (d *driver) admit() {
	d.nextID++
	n := 2 + d.rng.Intn(3)
	rec := &JobRecord{
		ID:      d.nextID,
		Key:     uint64(d.rng.Int63()),
		Class:   core.Class(d.rng.Intn(2)),
		Action:  core.ActionID(d.rng.Intn(4)),
		Tenant:  core.TenantID(d.rng.Intn(3)),
		Dataset: volume.DatasetID(1 + d.rng.Intn(2)),
		Issued:  d.now,
		Req:     []byte{byte(d.nextID), 0xAB},
		Tasks:   make([]TaskInfo, n),
	}
	for i := range rec.Tasks {
		rec.Tasks[i] = TaskInfo{
			Chunk: volume.ChunkID{Dataset: rec.Dataset, Index: i},
			Size:  units.Bytes(1+d.rng.Intn(3)) * units.MB,
		}
	}
	d.jobs = append(d.jobs, rec)
	d.cjobs[rec.ID] = buildJob(rec)
	d.b.Push(d.cjobs[rec.ID])
	d.journal(journal.KindAdmit, rec.ID, -1, -1, AdmitBody{Job: *rec})
}

// pickTask returns a random (job, task index) with the task in want state.
func (d *driver) pickTask(want TaskState) (*JobRecord, int) {
	type cand struct {
		rec *JobRecord
		i   int
	}
	var cands []cand
	for _, rec := range d.jobs {
		for i := range rec.Tasks {
			if rec.Tasks[i].State == want {
				cands = append(cands, cand{rec, i})
			}
		}
	}
	if len(cands) == 0 {
		return nil, -1
	}
	c := cands[d.rng.Intn(len(cands))]
	return c.rec, c.i
}

func (d *driver) dispatch() {
	rec, i := d.pickTask(TaskQueued)
	up := d.upNodes()
	if rec == nil || len(up) == 0 {
		return
	}
	node := up[d.rng.Intn(len(up))]
	t := &d.cjobs[rec.ID].Tasks[i]
	d.b.Reclaim(t) // a pass's assignment, made outside a pass
	pred := d.tables.CommitAssign(t, node, d.now)
	rec.Tasks[i] = InfoOf(t, node)
	d.journal(journal.KindDispatch, rec.ID, i, node, DispatchBody{Predicted: pred})
}

func (d *driver) complete() {
	rec, i := d.pickTask(TaskAssigned)
	if rec == nil {
		return
	}
	ti := &rec.Tasks[i]
	j := d.cjobs[rec.ID]
	t := &j.Tasks[i]
	hit := d.rng.Intn(2) == 0
	touch := hit && d.rng.Intn(2) == 0
	exec := t.PredictedExec + units.Duration(d.rng.Intn(5)-2)*units.Millisecond
	if exec <= 0 {
		exec = units.Millisecond
	}
	var evicted []volume.ChunkID
	if res := d.tables.Caches[ti.Node].Resident(); len(res) > 1 && d.rng.Intn(3) == 0 {
		if ev := res[d.rng.Intn(len(res))]; ev != t.Chunk {
			evicted = append(evicted, ev)
		}
	}
	if touch {
		d.tables.DemandTouchPrefetched(t.Chunk, ti.Node)
	}
	d.tables.Correct(core.TaskResult{
		Task: t, Node: ti.Node, Hit: hit, Exec: exec,
		Predicted: t.PredictedExec, Evicted: evicted, Finished: d.now,
	}, d.now)
	d.journal(journal.KindComplete, rec.ID, i, ti.Node,
		CompleteBody{Hit: hit, Touch: touch, Exec: exec, Evicted: evicted})
	t.Move(core.TaskDone)
	rec.Tasks[i] = InfoOf(t, ti.Node)
}

func (d *driver) failJob() {
	var live []*JobRecord
	for _, rec := range d.jobs {
		if slices.ContainsFunc(rec.Tasks, func(ti TaskInfo) bool { return ti.State != TaskDone }) {
			live = append(live, rec)
		}
	}
	if len(live) == 0 {
		return
	}
	rec := live[d.rng.Intn(len(live))]
	for i, r := range d.jobs {
		if r == rec {
			d.jobs = append(d.jobs[:i], d.jobs[i+1:]...)
			break
		}
	}
	d.b.Remove(d.cjobs[rec.ID])
	delete(d.cjobs, rec.ID)
	d.journal(journal.KindFail, rec.ID, -1, -1, nil)
}

func (d *driver) rehome() {
	up := d.upNodes()
	if len(up) < 2 {
		return
	}
	node := up[d.rng.Intn(len(up))]
	d.tables.MarkFailed(node)
	for _, rec := range d.jobs {
		j := d.cjobs[rec.ID]
		for i := range rec.Tasks {
			if ti := &rec.Tasks[i]; ti.State == TaskAssigned && ti.Node == node {
				d.b.Requeue(&j.Tasks[i])
				*ti = InfoOf(&j.Tasks[i], node)
			}
		}
	}
	d.journal(journal.KindRehome, 0, -1, node, nil)
}

func (d *driver) repair() {
	for k := 0; k < d.tables.Nodes(); k++ {
		if d.tables.Health(core.NodeID(k)) == core.HealthDown {
			d.tables.MarkRepaired(core.NodeID(k), d.now)
			d.journal(journal.KindRepair, 0, -1, core.NodeID(k), nil)
			return
		}
	}
}

func (d *driver) suspectOrUp() {
	node := core.NodeID(d.rng.Intn(d.tables.Nodes()))
	if d.rng.Intn(2) == 0 {
		d.tables.MarkSuspect(node)
		d.journal(journal.KindSuspect, 0, -1, node, nil)
	} else {
		d.tables.MarkUp(node)
		d.journal(journal.KindUp, 0, -1, node, nil)
	}
}

func (d *driver) prefetch() {
	up := d.upNodes()
	if len(up) == 0 {
		return
	}
	node := up[d.rng.Intn(len(up))]
	c := d.chunk()
	size := units.Bytes(1+d.rng.Intn(2)) * units.MB
	var evicted []volume.ChunkID
	if res := d.tables.Caches[node].Resident(); len(res) > 0 && d.rng.Intn(4) == 0 {
		if ev := res[d.rng.Intn(len(res))]; ev != c {
			evicted = append(evicted, ev)
		}
	}
	d.tables.LandWarm(c, node, size, evicted)
	d.journal(journal.KindPrefetch, 0, -1, node,
		PrefetchBody{Chunk: c, Size: size, Loaded: true, Evicted: evicted})
}

// releaseAndRedispatch mirrors the head's deadline path: the requeue itself
// is never journaled (it mutates no tables); only the subsequent re-dispatch
// is. Replay must requeue the still-assigned task before the dispatch.
func (d *driver) releaseAndRedispatch() {
	rec, i := d.pickTask(TaskAssigned)
	up := d.upNodes()
	if rec == nil || len(up) == 0 {
		return
	}
	t := &d.cjobs[rec.ID].Tasks[i]
	d.b.Requeue(t)
	node := up[d.rng.Intn(len(up))]
	d.b.Reclaim(t)
	pred := d.tables.CommitAssign(t, node, d.now)
	rec.Tasks[i] = InfoOf(t, node)
	d.journal(journal.KindDispatch, rec.ID, i, node, DispatchBody{Predicted: pred})
}

func (d *driver) step() {
	d.now = d.now.Add(units.Duration(1+d.rng.Intn(4)) * units.Millisecond)
	switch r := d.rng.Intn(20); {
	case r < 4:
		d.admit()
	case r < 9:
		d.dispatch()
	case r < 13:
		d.complete()
	case r < 14:
		d.failJob()
	case r < 15:
		d.rehome()
	case r < 16:
		d.repair()
	case r < 17:
		d.suspectOrUp()
	case r < 19:
		d.prefetch()
	default:
		d.releaseAndRedispatch()
	}
}

func (d *driver) snapshot() *Snapshot {
	s := &Snapshot{At: d.now, NextJobID: d.nextID, Tables: d.tables.Dump()}
	for _, rec := range d.jobs {
		c := *rec
		c.Tasks = slices.Clone(rec.Tasks)
		c.Req = slices.Clone(rec.Req)
		s.Jobs = append(s.Jobs, c)
	}
	return s
}

func TestReplayReconstructsTablesDeepEqual(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		d := newDriver(t, seed, 4)
		for i := 0; i < 150; i++ {
			d.step()
		}
		snap := d.snapshot()
		if err := d.jw.Sync(); err != nil { // drain pre-checkpoint records
			t.Fatalf("seed %d: sync: %v", seed, err)
		}
		d.sink.Reset() // checkpoint taken: truncate the log, as the head does
		for i := 0; i < 250; i++ {
			d.step()
		}
		if err := d.jw.Sync(); err != nil {
			t.Fatalf("seed %d: sync: %v", seed, err)
		}

		records, err := journal.ReadAll(bytes.NewReader(d.sink.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: reading journal: %v", seed, err)
		}
		st, err := Replay(snap, records, d.tables.Model)
		if err != nil {
			t.Fatalf("seed %d: replay: %v", seed, err)
		}

		if !reflect.DeepEqual(st.Tables.Dump(), d.tables.Dump()) {
			t.Fatalf("seed %d: replayed tables differ from live tables", seed)
		}
		// A dump carries no derived state: the replayed head's residency
		// index was rebuilt by LoadTables and kept by replay's own writes.
		if err := st.Tables.Validate(); err != nil {
			t.Fatalf("seed %d: replayed tables: %v", seed, err)
		}
		wantAt := max(snap.At, d.lastAt)
		if st.NextJobID != d.nextID || st.At != wantAt {
			t.Fatalf("seed %d: replayed meta (next=%d at=%v) != live (next=%d at=%v)",
				seed, st.NextJobID, st.At, d.nextID, wantAt)
		}
		if len(st.Jobs) != len(d.jobs) {
			t.Fatalf("seed %d: replayed %d jobs, live has %d", seed, len(st.Jobs), len(d.jobs))
		}
		for i, rj := range st.Jobs {
			want := d.jobs[i]
			if !reflect.DeepEqual(rj.Rec, want) {
				t.Fatalf("seed %d: job %d record differs:\n got %+v\nwant %+v", seed, want.ID, rj.Rec, want)
			}
			if err := core.CheckRecords(rj.Job); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			cj := d.cjobs[want.ID]
			if rj.Job.Remaining != cj.Remaining {
				t.Fatalf("seed %d: job %d Remaining %d != %d", seed, want.ID, rj.Job.Remaining, cj.Remaining)
			}
			// A task the head completed recovers journaled: its pixels
			// were on the head that died.
			for k := range cj.Tasks {
				state := cj.Tasks[k].State
				if state == core.TaskDone {
					state = core.TaskJournaled
				}
				if rj.Job.Tasks[k].State != state || rj.Job.Tasks[k].PredictedExec != cj.Tasks[k].PredictedExec {
					t.Fatalf("seed %d: job %d task %d diverged", seed, want.ID, k)
				}
			}
		}

		// Byte-identical snapshots: the recovered head re-snapshots to the
		// exact bytes the live head would have written.
		liveSnap := d.snapshot()
		liveSnap.At = wantAt // replay can only be as fresh as the last record
		recSnap := &Snapshot{At: st.At, NextJobID: st.NextJobID, Tables: st.Tables.Dump()}
		for _, rj := range st.Jobs {
			recSnap.Jobs = append(recSnap.Jobs, *rj.Rec)
		}
		lb, err1 := liveSnap.Encode()
		rb, err2 := recSnap.Encode()
		if err1 != nil || err2 != nil {
			t.Fatalf("seed %d: encode: %v / %v", seed, err1, err2)
		}
		if !bytes.Equal(lb, rb) {
			t.Fatalf("seed %d: recovered snapshot bytes differ from live snapshot bytes", seed)
		}
	}
}

func TestSnapshotEncodeDeterministicAndValidated(t *testing.T) {
	d := newDriver(t, 42, 3)
	for i := 0; i < 120; i++ {
		d.step()
	}
	s := d.snapshot()
	a, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("snapshot encoding is not deterministic")
	}
	back, err := DecodeSnapshot(a)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(back, s) {
		t.Fatal("decoded snapshot differs from original")
	}

	flip := slices.Clone(a)
	flip[len(flip)/2] ^= 0x40
	if _, err := DecodeSnapshot(flip); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("tampered snapshot decoded: err=%v", err)
	}
	if _, err := DecodeSnapshot(a[:6]); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("truncated snapshot decoded: err=%v", err)
	}
	bad := slices.Clone(a)
	bad[4] = 99 // version
	if _, err := DecodeSnapshot(bad); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("wrong-version snapshot decoded: err=%v", err)
	}
}

// emptySnap builds a minimal snapshot with n nodes and no jobs.
func emptySnap(n int) *Snapshot {
	h := core.NewHeadState(n, 16*units.MB, core.DefaultCostModel())
	return &Snapshot{Tables: h.Dump()}
}

func mustBody(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := EncodeBody(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestReplayRejectsDivergentPrediction(t *testing.T) {
	snap := emptySnap(2)
	job := JobRecord{ID: 1, Dataset: 1, Tasks: []TaskInfo{
		{Chunk: volume.ChunkID{Dataset: 1, Index: 0}, Size: units.MB},
	}}
	records := []journal.Record{
		{Kind: journal.KindAdmit, Job: 1, Body: mustBody(t, AdmitBody{Job: job})},
		{Kind: journal.KindDispatch, Job: 1, Task: 0, Node: 0,
			Body: mustBody(t, DispatchBody{Predicted: 123})},
	}
	if _, err := Replay(snap, records, core.DefaultCostModel()); err == nil {
		t.Fatal("replay accepted a dispatch whose prediction cannot be reproduced")
	}
}

func TestReplayRejectsBrokenLifecycles(t *testing.T) {
	model := core.DefaultCostModel()
	job := JobRecord{ID: 1, Dataset: 1, Tasks: []TaskInfo{
		{Chunk: volume.ChunkID{Dataset: 1, Index: 0}, Size: units.MB},
	}}
	admit := journal.Record{Kind: journal.KindAdmit, Job: 1, Body: mustBody(t, AdmitBody{Job: job})}
	complete := journal.Record{Kind: journal.KindComplete, Job: 1, Task: 0, Node: 0,
		Body: mustBody(t, CompleteBody{Exec: units.Millisecond})}

	cases := map[string][]journal.Record{
		"unknown job":          {complete},
		"duplicate admit":      {admit, admit},
		"task out of range":    {admit, {Kind: journal.KindComplete, Job: 1, Task: 9, Body: mustBody(t, CompleteBody{Exec: 1})}},
		"duplicate completion": {admit, complete, complete},
	}
	for name, recs := range cases {
		if _, err := Replay(emptySnap(2), recs, model); err == nil {
			t.Errorf("%s: replay accepted a structurally broken journal", name)
		}
	}
}

// TestReplayRecoversReleasedTaskAsAssigned pins the documented semantics of
// a deadline requeue that was never re-dispatched before the crash: the
// requeue is not journaled, so the task recovers as assigned and the
// standby's deadline machinery re-fires for it — the same outcome the lost
// head was heading for, never a lost task.
func TestReplayRecoversReleasedTaskAsAssigned(t *testing.T) {
	d := newDriver(t, 7, 2)
	d.now = units.Time(units.Millisecond)
	d.admit()
	snap := d.snapshot()
	if err := d.jw.Sync(); err != nil {
		t.Fatal(err)
	}
	d.sink.Reset()
	d.dispatch()
	// The live head requeues the task (deadline fired) — no journal record.
	rec := d.jobs[0]
	j := d.cjobs[rec.ID]
	var released int = -1
	for i := range rec.Tasks {
		if rec.Tasks[i].State == TaskAssigned {
			released = i
			d.b.Requeue(&j.Tasks[i])
			break
		}
	}
	if released < 0 {
		t.Fatal("no task was dispatched")
	}
	if err := d.jw.Sync(); err != nil {
		t.Fatal(err)
	}
	records, err := journal.ReadAll(bytes.NewReader(d.sink.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	st, err := Replay(snap, records, d.tables.Model)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Jobs[0].Rec.Tasks[released].State; got != TaskAssigned {
		t.Fatalf("released task recovered as %d, want TaskAssigned", got)
	}
	if got := st.Jobs[0].Job.Tasks[released].State; got != core.TaskAssigned {
		t.Fatalf("released task recovered %v, want assigned", got)
	}
}
