// Command vizload drives a live visualization service with simulated users
// and reports achieved framerates and latencies — the paper's experiment
// shape run against the real rendering stack instead of the cluster
// simulator. By default it stands up an in-process cluster over synthetic
// datasets; point it at a running vizserver head with -addr instead.
//
// Usage:
//
//	vizload -users 3 -workers 4 -duration 10s
//	vizload -addr localhost:7000 -datasets supernova,plume -users 2 -duration 30s
//	vizload -users 8 -tenants 4 -skew 1.5 -qos   # skewed multi-tenant overload
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"vizsched/internal/experiments"
	"vizsched/internal/qos"
	"vizsched/internal/service"
	"vizsched/internal/units"
	"vizsched/internal/volume"
	"vizsched/internal/workload"
)

type userStats struct {
	tenant    int
	frames    int
	drops     int
	latencies []time.Duration
	err       error
}

// dropped reports whether a render error is a QoS decision (shed, rejected,
// overloaded) rather than a service failure: users keep driving load through
// drops, the way a real viewer outlives a skipped frame.
func dropped(err error) bool {
	msg := err.Error()
	for _, k := range []string{"shed", "reject", "overloaded", "superseded"} {
		if strings.Contains(msg, k) {
			return true
		}
	}
	return false
}

func main() {
	addr := flag.String("addr", "", "existing head node address (empty: in-process cluster)")
	users := flag.Int("users", 3, "concurrent interactive users")
	workers := flag.Int("workers", 4, "rendering workers (in-process mode)")
	schedName := flag.String("sched", "OURS", "scheduler (in-process mode)")
	duration := flag.Duration("duration", 10*time.Second, "how long each user keeps rendering")
	size := flag.Int("size", 128, "image size")
	datasetsFlag := flag.String("datasets", "", "comma-separated dataset names (default: synthetic set)")
	batch := flag.Int("batch", 0, "also submit this many batch frames up front")
	tenants := flag.Int("tenants", 0, "bill users to this many tenants (0: single default tenant)")
	skew := flag.Float64("skew", 0, "Zipf exponent for tenant demand skew; 0 = uniform, tenant 1 hottest")
	useQoS := flag.Bool("qos", false, "enable per-tenant admission control and fair queuing (in-process mode)")
	flag.Parse()

	// Per-user tenant labels, Zipf-skewed like the simulator's workload
	// generator so live runs reproduce the qossweep demand shape.
	sampleTenant := workload.TenantSampler(*tenants, *skew, 7777)

	var datasets []string
	if *datasetsFlag != "" {
		datasets = strings.Split(*datasetsFlag, ",")
	}

	connect := func() *service.Client { // set below per mode
		panic("unset")
	}
	var headStats func() service.StatsSnapshot
	if *addr != "" {
		if len(datasets) == 0 {
			log.Fatal("vizload: -datasets is required with -addr")
		}
		if *useQoS {
			log.Fatal("vizload: -qos configures the in-process head; enable QoS on the remote vizserver instead")
		}
		connect = func() *service.Client {
			c, err := service.DialTCP(*addr)
			if err != nil {
				log.Fatal("vizload: ", err)
			}
			return c
		}
	} else {
		if len(datasets) == 0 {
			datasets = []string{"supernova", "plume", "combustion"}
		}
		dir, err := os.MkdirTemp("", "vizload")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		catalog := service.NewCatalog()
		for _, name := range datasets {
			g := volume.Generate(volume.FieldByName(name), 32, 32, 32)
			m, err := service.WriteDataset(filepath.Join(dir, name), name, g, 3, name)
			if err != nil {
				log.Fatal(err)
			}
			if err := catalog.Add(m); err != nil {
				log.Fatal(err)
			}
		}
		sched, err := experiments.SchedulerByName(*schedName)
		if err != nil {
			log.Fatal("vizload: ", err)
		}
		cluster, err := service.StartClusterWith(sched, catalog, *workers, 256*units.MB, func(h *service.Head) {
			if *useQoS {
				h.QoS = qos.DefaultConfig()
			}
		})
		if err != nil {
			log.Fatal("vizload: ", err)
		}
		defer cluster.Stop()
		connect = cluster.Connect
		headStats = cluster.Head.Stats
		fmt.Printf("in-process cluster: %d workers, %s scheduling, qos %v, datasets %v\n",
			*workers, sched.Name(), *useQoS, datasets)
	}

	// Optional batch pressure.
	if *batch > 0 {
		bc := connect()
		defer bc.Close()
		for f := 0; f < *batch; f++ {
			if _, err := bc.RenderAsync(service.RenderBody{
				Dataset: datasets[f%len(datasets)],
				Angle:   float64(f) * 0.26, Dist: 2.5,
				Width: *size, Height: *size,
				Batch: true, Action: 1000,
				Tenant: int(sampleTenant()),
			}); err != nil {
				log.Fatal("vizload: ", err)
			}
		}
		fmt.Printf("submitted %d batch frames\n", *batch)
	}

	stats := make([]userStats, *users)
	var wg sync.WaitGroup
	start := time.Now()
	for u := 0; u < *users; u++ {
		u := u
		stats[u].tenant = int(sampleTenant())
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := connect()
			defer client.Close()
			ds := datasets[u%len(datasets)]
			angle := 0.3 * float64(u)
			for time.Since(start) < *duration {
				t0 := time.Now()
				_, err := client.Render(service.RenderBody{
					Dataset: ds,
					Angle:   angle, Elevation: 0.3, Dist: 2.4,
					Width: *size, Height: *size,
					Action: u + 1,
					Tenant: stats[u].tenant,
				})
				if err != nil {
					if dropped(err) {
						stats[u].drops++
						continue
					}
					stats[u].err = err
					return
				}
				stats[u].frames++
				stats[u].latencies = append(stats[u].latencies, time.Since(t0))
				angle += 2 * math.Pi / 64
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	fmt.Printf("\n%-6s %7s %8s %7s %8s %10s %10s %10s\n",
		"user", "tenant", "frames", "drops", "fps", "p50", "p95", "max")
	for u := range stats {
		s := &stats[u]
		if s.err != nil {
			fmt.Printf("user%-2d failed: %v\n", u, s.err)
			continue
		}
		slices.Sort(s.latencies)
		pct := func(q float64) time.Duration {
			if len(s.latencies) == 0 {
				return 0
			}
			return s.latencies[int(q*float64(len(s.latencies)-1))]
		}
		fmt.Printf("user%-2d %7d %8d %7d %8.2f %10v %10v %10v\n",
			u, s.tenant, s.frames, s.drops, float64(s.frames)/elapsed.Seconds(),
			pct(0.5).Round(time.Millisecond), pct(0.95).Round(time.Millisecond),
			pct(1).Round(time.Millisecond))
	}

	if headStats != nil {
		snap := headStats()
		fmt.Printf("\nscheduler: %d passes with work, %d of them started by an arrival instead of the tick\n",
			snap.SchedCycles, snap.EarlyCycles)
		if snap.QoS != nil {
			q := snap.QoS
			fmt.Printf("\nqos: level %s (peak %d, %d transitions), throttled %d, rejected %d, shed %d, jain %.3f\n",
				q.LevelName, q.MaxLevel, q.LevelChanges, q.JobsThrottled, q.JobsRejected, snap.JobsShed, q.Jain)
			for _, ts := range q.Tenants {
				fmt.Printf("  tenant %-2d issued %5d admitted %5d throttled %5d rejected %5d shed %5d completed %5d p95 %6.1fms\n",
					ts.Tenant, ts.Issued, ts.Admitted, ts.Throttled, ts.Rejected, ts.Shed, ts.Completed, ts.P95Millis)
			}
		}
	}
}
