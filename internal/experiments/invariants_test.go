package experiments

import (
	"math/rand"
	"testing"
	"testing/quick"

	"vizsched/internal/core"
	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// randomQueue builds a reproducible random job queue over nDatasets
// datasets with the given chunk counts.
func randomQueue(rng *rand.Rand, nJobs, nDatasets, maxChunks int) []*core.Job {
	queue := make([]*core.Job, nJobs)
	for j := range queue {
		class := core.Interactive
		if rng.Intn(3) == 0 {
			class = core.Batch
		}
		ds := volume.DatasetID(rng.Intn(nDatasets) + 1)
		chunks := rng.Intn(maxChunks) + 1
		job := &core.Job{
			ID:      core.JobID(j + 1),
			Class:   class,
			Action:  core.ActionID(rng.Intn(8) + 1),
			Dataset: ds,
			Issued:  units.Time(rng.Int63n(int64(units.Second))),
		}
		job.Tasks = make([]core.Task, chunks)
		for i := range job.Tasks {
			job.Tasks[i] = core.Task{
				Job: job, Index: i,
				Chunk: volume.ChunkID{Dataset: ds, Index: i},
				Size:  units.Bytes(rng.Intn(7)+1) * 64 * units.MB,
			}
		}
		job.Remaining = int32(chunks)
		queue[j] = job
	}
	return queue
}

// Every scheduler, fed arbitrary queues and partially warmed head states,
// must satisfy the engine's contract: returned assignments reference
// distinct previously-unassigned tasks from the queue, marked assigned,
// placed on alive in-range nodes.
func TestQuickSchedulerContract(t *testing.T) {
	names := []string{"FS", "SF", "FCFS", "FCFSU", "FCFSL", "OURS", "DELAY"}
	f := func(seed int64, rawNodes, rawJobs uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := int(rawNodes%15) + 2
		nJobs := int(rawJobs%20) + 1
		for _, name := range names {
			sched, err := SchedulerByName(name)
			if err != nil {
				return false
			}
			head := core.NewHeadState(nodes, 2*units.GB, core.System1CostModel())
			// Warm a few random predicted caches.
			for i := 0; i < rng.Intn(10); i++ {
				head.Caches[rng.Intn(nodes)].Insert(
					volume.ChunkID{Dataset: volume.DatasetID(rng.Intn(4) + 1), Index: rng.Intn(4)},
					units.Bytes(rng.Intn(7)+1)*64*units.MB)
			}
			// Occasionally fail a node.
			if nodes > 2 && rng.Intn(3) == 0 {
				head.MarkFailed(core.NodeID(rng.Intn(nodes)))
			}
			queue := randomQueue(rng, nJobs, 4, 4)
			now := units.Time(rng.Int63n(int64(units.Second)))

			seen := map[*core.Task]bool{}
			for _, a := range sched.Schedule(now, queue, head) {
				if a.Task == nil || seen[a.Task] {
					t.Logf("%s: nil or duplicate task", name)
					return false
				}
				seen[a.Task] = true
				if !a.Task.Assigned() {
					t.Logf("%s: assignment not marked", name)
					return false
				}
				if a.Node < 0 || int(a.Node) >= nodes {
					t.Logf("%s: node %d out of range", name, a.Node)
					return false
				}
				if !head.Alive(a.Node) {
					t.Logf("%s: assigned to failed node %d", name, a.Node)
					return false
				}
			}
			// Tasks not in the seen set must remain unassigned.
			for _, j := range queue {
				for i := range j.Tasks {
					tk := &j.Tasks[i]
					if tk.Assigned() != seen[tk] {
						t.Logf("%s: task marks inconsistent with returned assignments", name)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// OURS must assign every interactive task every cycle (its core
// responsiveness guarantee), for any queue, as long as a node is alive.
func TestQuickOursAssignsAllInteractive(t *testing.T) {
	f := func(seed int64, rawJobs uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		sched := core.NewLocalityScheduler(0)
		head := core.NewHeadState(4, 2*units.GB, core.System1CostModel())
		queue := randomQueue(rng, int(rawJobs%25)+1, 5, 4)
		sched.Schedule(0, queue, head)
		for _, j := range queue {
			if j.Class != core.Interactive {
				continue
			}
			for i := range j.Tasks {
				if !j.Tasks[i].Assigned() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// The head's Available table must be nondecreasing under commits: an
// assignment can only push a node's availability later.
func TestQuickCommitMonotone(t *testing.T) {
	f := func(seed int64, rawJobs uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		head := core.NewHeadState(4, 2*units.GB, core.System1CostModel())
		queue := randomQueue(rng, int(rawJobs%10)+1, 3, 4)
		for _, j := range queue {
			for i := range j.Tasks {
				k := core.NodeID(rng.Intn(4))
				before := head.Available[k]
				head.CommitAssign(&j.Tasks[i], k, 0)
				if head.Available[k] <= before && before > 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
