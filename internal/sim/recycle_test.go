package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"vizsched/internal/core"
	"vizsched/internal/units"
	"vizsched/internal/workload"
)

// TestDuplicateCompletionPanics: a finished job is reused only after the
// next pass, and a completion report lands only on a task that is running.
// A late report must panic once its job finished, both while the job waits
// out its pass and once a new job reuses its storage (where, unchecked, it
// would count toward the new job), and for a task the head requeued while
// its job runs.
func TestDuplicateCompletionPanics(t *testing.T) {
	e := New(smallConfig(core.NewLocalityScheduler(0), 1))
	arrive := func() *core.Job {
		e.admitArrival(workload.Request{At: e.sim.Now(), Class: core.Interactive, Action: 1, Dataset: 1}, e.sim.Now())
		queued := e.backlog.Jobs()
		return queued[len(queued)-1]
	}
	late := func(when string, task *core.Task) {
		t.Helper()
		defer func() {
			if r := fmt.Sprint(recover()); !strings.HasPrefix(r, "core: "+task.String()+" moved from ") || !strings.HasSuffix(r, " to done") {
				t.Errorf("%s: a late completion of %v gave %v, want the task move's panic", when, task, r)
			}
		}()
		e.account(core.TaskResult{Task: task, Exec: units.Millisecond, Finished: e.sim.Now()})
	}

	first := arrive()
	e.invokeScheduler()
	e.sim.Run(units.Time(units.Second))
	if n := e.report.Interactive.Completed; n != 1 {
		t.Fatalf("%d jobs completed, want 1", n)
	}
	late("finished", &first.Tasks[0])

	if second := arrive(); second == first {
		t.Fatal("a finished job was reused before the next pass")
	}
	e.invokeScheduler() // shown the second job: the first job is released for reuse
	e.sim.Run(units.Time(2 * units.Second))
	third := arrive()
	if third != first {
		t.Fatal("the third job did not reuse the first one's storage")
	}
	late("reused", &first.Tasks[0])

	e.invokeScheduler() // the third job runs on idle nodes
	if third.Tasks[1].State != core.TaskAssigned {
		t.Fatalf("the third job's task 1 is %v, want assigned", third.Tasks[1].State)
	}
	e.backlog.Requeue(&third.Tasks[1])
	late("requeued", &third.Tasks[1])
}

// TestEngineAllocsPerJob: with jobs' storage reused once their pass is over,
// a paper scenario allocates fewer than two objects per issued job over the
// whole run — engine, head tables and scheduler included.
func TestEngineAllocsPerJob(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	cfg := workload.Scenario(workload.Scenario3, 0.02)
	eng := New(ScenarioEngineConfig(cfg, core.NewLocalityScheduler(0), 0.05))
	wl := workload.Generate(cfg.Spec)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	rep := eng.Run(wl, 0)
	runtime.ReadMemStats(&m1)
	jobs := float64(rep.Interactive.Issued + rep.Batch.Issued)
	if perJob := float64(m1.Mallocs-m0.Mallocs) / jobs; perJob >= 2 {
		t.Errorf("%.2f allocations per issued job over %.0f jobs, want fewer than 2", perJob, jobs)
	} else {
		t.Logf("%.2f allocations per issued job over %.0f jobs", perJob, jobs)
	}
}
