// Failover: the fault-tolerance behaviour of §VI-D and §5.10, demonstrated
// three times — first on the cluster simulator (a 24-second run with a node
// crash and repair mid-flight plus a transient stall, showing recovery
// metrics), then on the live service (a worker connection killed between
// frames, renders continuing on the survivors, and the worker rejoining its
// old slot with a cold cache), and finally a head crash: a journaling head
// dies mid-session, a warm standby replays the snapshot + journal, the
// workers resync onto it, and the animation finishes byte-identical to an
// uninterrupted run with zero re-rendering.
//
//	go run ./examples/failover
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"vizsched/internal/core"
	"vizsched/internal/hastate"
	"vizsched/internal/journal"
	"vizsched/internal/service"
	"vizsched/internal/sim"
	"vizsched/internal/units"
	"vizsched/internal/volume"
	"vizsched/internal/workload"
)

func simulated() {
	fmt.Println("== simulator: 4 nodes, 3 users, node 1 dies at t=8s, repaired at t=16s ==")
	lib := volume.NewLibrary()
	for i := 1; i <= 3; i++ {
		lib.Add(volume.NewDataset(volume.DatasetID(i), fmt.Sprintf("ds-%d", i),
			units.GB, volume.MaxChunk{Chkmax: 256 * units.MB}))
	}
	eng := sim.New(sim.Config{
		Nodes:     4,
		MemQuota:  2 * units.GB,
		Model:     core.System1CostModel(),
		Scheduler: core.NewLocalityScheduler(0),
		Library:   lib,
		Preload:   true,
		Seed:      1,
		Failures: []sim.Failure{
			{
				At:       units.Time(8 * units.Second),
				Node:     1,
				RepairAt: units.Time(16 * units.Second),
			},
			// A transient stall on node 2: frozen for two seconds, then
			// resumes with caches intact — no reloads, just delay.
			{
				Kind:     sim.FaultStall,
				At:       units.Time(12 * units.Second),
				Node:     2,
				RepairAt: units.Time(14 * units.Second),
			},
		},
	})
	wl := workload.Generate(workload.Spec{
		Length:            units.Time(24 * units.Second),
		Datasets:          3,
		ContinuousActions: 3,
		Seed:              4,
	})
	rep := eng.Run(wl, 0)
	fmt.Printf("completed %d/%d interactive jobs across the crash window\n",
		rep.Interactive.Completed, rep.Interactive.Issued)
	fmt.Printf("mean fps %.2f (33.33 without the crash), %d reloads forced by the lost caches\n",
		rep.MeanFramerate(), rep.Loads)
	depth, below := rep.Recovery.FramerateDip(100.0 / 3.0)
	fmt.Printf("recovery: faults=%d tasks re-dispatched=%d MTTR=%v dip-depth=%.2ffps dip-time=%v\n\n",
		rep.Recovery.Faults, rep.Recovery.TasksRedispatched,
		rep.Recovery.MTTR().Std().Round(time.Millisecond), depth, below.Std())
}

func live() {
	fmt.Println("== live service: 3 workers, one killed mid-session ==")
	dir, err := os.MkdirTemp("", "vizsched-failover")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	g := volume.Generate(volume.Supernova, 32, 32, 32)
	m, err := service.WriteDataset(filepath.Join(dir, "nova"), "nova", g, 3, "supernova")
	if err != nil {
		log.Fatal(err)
	}
	catalog := service.NewCatalog()
	if err := catalog.Add(m); err != nil {
		log.Fatal(err)
	}
	cluster, err := service.StartCluster(core.NewLocalityScheduler(5*units.Millisecond),
		catalog, 3, 128*units.MB)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Stop()
	client := cluster.Connect()
	defer client.Close()

	req := service.RenderBody{Dataset: "nova", Angle: 0.5, Elevation: 0.3, Dist: 2.4, Width: 96, Height: 96}
	render := func(frame int) {
		t0 := time.Now()
		res, err := client.Render(req)
		if err != nil {
			log.Fatalf("frame %d: %v", frame, err)
		}
		fmt.Printf("  frame %d: %7v (%d hits / %d loads)\n",
			frame, time.Since(t0).Round(time.Millisecond), res.Hits, res.Misses)
		req.Angle += 0.2
	}
	for frame := 0; frame < 6; frame++ {
		if frame == 3 {
			fmt.Println("  !! killing worker 1's connection")
			cluster.Head.KillWorker(1)
			time.Sleep(20 * time.Millisecond)
		}
		render(frame)
	}
	fmt.Println("all frames delivered despite the lost worker")

	// Bring the worker back: a fresh process reclaims slot 1 with a cold
	// cache, and the head marks it repaired and feeds it work again.
	fmt.Println("  >> restarting worker 1 (rejoin, cold cache)")
	if err := cluster.RejoinWorker(1); err != nil {
		log.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Second); cluster.Head.WorkerHealth(1) != core.HealthUp; {
		if time.Now().After(deadline) {
			log.Fatal("worker 1 did not rejoin in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for frame := 6; frame < 9; frame++ {
		render(frame)
	}
	fmt.Println(recoveryLine(cluster.Head.Stats()))
}

// headFailover runs the same keyed animation twice: once uninterrupted, once
// with the head crashed after frame 3 and a warm standby taking over from
// the snapshot + journal. The delivered frames are byte-identical and the
// workers render nothing twice.
func headFailover() {
	fmt.Println("\n== head failover: journaling head killed mid-animation, standby takes over ==")
	dir, err := os.MkdirTemp("", "vizsched-headfailover")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	g := volume.Generate(volume.Supernova, 32, 32, 32)
	m, err := service.WriteDataset(filepath.Join(dir, "nova"), "nova", g, 3, "supernova")
	if err != nil {
		log.Fatal(err)
	}
	catalog := service.NewCatalog()
	if err := catalog.Add(m); err != nil {
		log.Fatal(err)
	}
	model := core.DefaultCostModel()
	const frames = 6
	frameReq := func(f int) service.RenderBody {
		return service.RenderBody{
			Dataset: "nova", Angle: 0.2 * float64(f), Elevation: 0.3, Dist: 2.4,
			Width: 64, Height: 64, Key: uint64(f + 1),
		}
	}

	// Reference: the same six frames with no crash.
	ref, err := service.StartCluster(core.NewLocalityScheduler(2*units.Millisecond), catalog, 2, 128*units.MB)
	if err != nil {
		log.Fatal(err)
	}
	refClient := ref.Connect()
	refPNGs := make([][]byte, frames)
	for f := 0; f < frames; f++ {
		res, err := refClient.Render(frameReq(f))
		if err != nil {
			log.Fatal(err)
		}
		refPNGs[f] = res.PNG
	}
	refClient.Close()
	ref.Stop()

	// The HA run: every mutation journaled (batch 1 = durable per record),
	// with a genesis snapshot for the journal to replay on top of.
	var wal bytes.Buffer
	cluster, err := service.StartClusterWith(core.NewLocalityScheduler(2*units.Millisecond),
		catalog, 2, 128*units.MB, func(h *service.Head) {
			h.Journal = journal.NewWriter(&wal, 1)
			h.SuspectAfter = 5 * time.Second
			h.DownAfter = 20 * time.Second
		})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Stop()
	genesis, err := cluster.Head.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	client := cluster.Connect()
	got := make([][]byte, frames)
	for f := 0; f < 3; f++ {
		res, err := client.Render(frameReq(f))
		if err != nil {
			log.Fatal(err)
		}
		got[f] = res.PNG
		fmt.Printf("  frame %d rendered (key %d)\n", f, f+1)
	}
	tasksBefore := cluster.Worker(0).TasksExecuted() + cluster.Worker(1).TasksExecuted()
	client.Close()

	fmt.Println("  !! killing the head (no shutdown, no sync — connections just die)")
	cluster.Head.Crash()

	recs, err := journal.ReadAll(bytes.NewReader(wal.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	st, err := hastate.Replay(genesis, recs, model)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  >> standby: replayed %d journal records -> %d recovered jobs\n", len(recs), len(st.Jobs))
	standby := service.NewHead(core.NewLocalityScheduler(2*units.Millisecond), catalog, 128*units.MB, model)
	standby.Logf = func(string, ...any) {}
	standby.SuspectAfter = 5 * time.Second
	standby.DownAfter = 20 * time.Second
	if err := standby.StartRecovered(st); err != nil {
		log.Fatal(err)
	}
	if err := cluster.ResyncTo(standby); err != nil {
		log.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); standby.Stats().WorkersResynced < 2; {
		if time.Now().After(deadline) {
			log.Fatal("workers did not resync in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
	fmt.Printf("  >> workers resynced: %d (cache re-announcement + retained replay)\n",
		standby.Stats().WorkersResynced)

	// The client reconnects and re-submits its last pre-crash key: the
	// standby serves it from the retained store, then the animation finishes.
	client2 := cluster.Connect()
	defer client2.Close()
	for f := 2; f < frames; f++ {
		res, err := client2.Render(frameReq(f))
		if err != nil {
			log.Fatal(err)
		}
		got[f] = res.PNG
	}
	tasksAfter := cluster.Worker(0).TasksExecuted() + cluster.Worker(1).TasksExecuted()

	for f := 0; f < frames; f++ {
		if !bytes.Equal(got[f], refPNGs[f]) {
			log.Fatalf("frame %d differs from the uninterrupted run", f)
		}
	}
	fmt.Printf("  all %d frames byte-identical to the uninterrupted run\n", frames)
	fmt.Printf("  tasks executed: %d before crash, %d rendered post-takeover (re-submitted key 3 re-rendered nothing)\n",
		tasksBefore, tasksAfter-tasksBefore)
	fmt.Println(" ", recoveryLine(standby.Stats()))
}

// recoveryLine renders a head's fault-tolerance counters: jobs lost counts
// every job that failed back to a client, and MTTR is the mean time from a
// node's down verdict to its rejoin.
func recoveryLine(s service.StatsSnapshot) string {
	mttr := time.Duration(s.MTTRSeconds * float64(time.Second)).Round(time.Millisecond)
	return fmt.Sprintf(
		"recovery: workers down=%d rejoined=%d, tasks re-dispatched=%d, jobs lost=%d (shed=%d), chunks re-homed=%d (re-seeded=%d), MTTR=%v",
		s.WorkersDown, s.WorkersRejoined, s.TasksRedispatched, s.JobsFailed, s.JobsShed,
		s.ChunksRehomed, s.ChunksReseeded, mttr)
}

func main() {
	simulated()
	live()
	headFailover()
}
