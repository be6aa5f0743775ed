// Command vizserver runs one node of the live visualization service over
// TCP — either the head (which accepts worker registrations, then serves
// clients) or a rendering worker.
//
// A three-terminal deployment:
//
//	vizserver -mode head -workers 2 -worker-addr :7001 -client-addr :7000 -sched OURS
//	vizserver -mode worker -connect localhost:7001 -data ./data -mem 256MB
//	vizserver -mode worker -connect localhost:7001 -data ./data -mem 256MB
//
// then render with vizclient -addr localhost:7000 -dataset supernova.
//
// The head needs no dataset payloads, only the manifests (it schedules by
// metadata); workers need the actual dataset directories.
//
// For head failover (§5.10), run the head with -journal and workers with
// -reconnect; after a head crash, a standby replays the snapshot + journal
// and the workers resync into it:
//
//	vizserver -mode head -journal head.wal -workers 2 ...
//	vizserver -mode worker -reconnect -connect localhost:7001 ...
//	# head dies; on the standby machine:
//	vizserver -mode head -standby -journal head.wal -workers 2 ...
//
// -netfaults adds seeded transport-level chaos to a worker's link for
// resilience drills.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"vizsched/internal/autoscale"
	"vizsched/internal/core"
	"vizsched/internal/experiments"
	"vizsched/internal/fracshare"
	"vizsched/internal/hastate"
	"vizsched/internal/journal"
	"vizsched/internal/prefetch"
	"vizsched/internal/qos"
	"vizsched/internal/service"
	"vizsched/internal/transport"
	"vizsched/internal/units"
)

func parseBytes(s string) (units.Bytes, error) {
	s = strings.ToUpper(strings.TrimSpace(s))
	mult := units.Bytes(1)
	switch {
	case strings.HasSuffix(s, "GB"):
		mult, s = units.GB, strings.TrimSuffix(s, "GB")
	case strings.HasSuffix(s, "MB"):
		mult, s = units.MB, strings.TrimSuffix(s, "MB")
	case strings.HasSuffix(s, "KB"):
		mult, s = units.KB, strings.TrimSuffix(s, "KB")
	}
	var n int64
	if _, err := fmt.Sscanf(s, "%d", &n); err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return units.Bytes(n) * mult, nil
}

// parseFaults parses a -netfaults spec: comma-separated key=value pairs with
// probability keys drop, corrupt, dup, reorder, delay, a maxdelay duration,
// and an integer seed. Example: "drop=0.02,dup=0.05,maxdelay=50ms,seed=42".
func parseFaults(spec string) (transport.FaultConfig, error) {
	cfg := transport.FaultConfig{MaxDelay: 20 * time.Millisecond}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return cfg, fmt.Errorf("bad netfaults entry %q (want key=value)", kv)
		}
		switch k {
		case "maxdelay":
			d, err := time.ParseDuration(v)
			if err != nil {
				return cfg, fmt.Errorf("bad maxdelay %q: %v", v, err)
			}
			cfg.MaxDelay = d
		case "seed":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return cfg, fmt.Errorf("bad seed %q: %v", v, err)
			}
			cfg.Seed = n
		default:
			p, err := strconv.ParseFloat(v, 64)
			if err != nil || p < 0 || p > 1 {
				return cfg, fmt.Errorf("bad probability %s=%q", k, v)
			}
			switch k {
			case "drop":
				cfg.Drop = p
			case "corrupt":
				cfg.Corrupt = p
			case "dup":
				cfg.Duplicate = p
			case "reorder":
				cfg.Reorder = p
			case "delay":
				cfg.Delay = p
			default:
				return cfg, fmt.Errorf("unknown netfaults key %q", k)
			}
		}
	}
	return cfg, nil
}

// recoverState replays the snapshot + journal pair at path into the state a
// standby head resumes from.
func recoverState(path string, model core.CostModel) (*hastate.State, error) {
	raw, err := os.ReadFile(path + ".snap")
	if err != nil {
		return nil, fmt.Errorf("reading snapshot: %w", err)
	}
	snap, err := hastate.DecodeSnapshot(raw)
	if err != nil {
		return nil, err
	}
	jf, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("opening journal: %w", err)
	}
	defer jf.Close()
	recs, err := journal.ReadAll(jf)
	if err != nil {
		return nil, err
	}
	st, err := hastate.Replay(snap, recs, model)
	if err != nil {
		return nil, err
	}
	log.Printf("head: recovered %d jobs from snapshot + %d journal records (clock %v)",
		len(st.Jobs), len(recs), st.At)
	return st, nil
}

func main() {
	mode := flag.String("mode", "head", "head or worker")
	data := flag.String("data", "./data", "directory of dataset directories")
	mem := flag.String("mem", "512MB", "per-worker brick cache quota")
	schedName := flag.String("sched", "OURS", "scheduling policy (head mode)")
	workers := flag.Int("workers", 1, "number of workers to wait for (head mode)")
	shards := flag.Int("shards", 1,
		"head shard count (head mode): run N independent dispatchers over a consistent-hash session partition, sharing a chunk directory; workers are placed round-robin; 1 keeps the single-head behaviour exactly")
	workerAddr := flag.String("worker-addr", ":7001", "worker registration address (head mode)")
	clientAddr := flag.String("client-addr", ":7000", "client service address (head mode)")
	connect := flag.String("connect", "localhost:7001", "head's worker address (worker mode)")
	name := flag.String("name", "", "worker name (worker mode)")
	httpAddr := flag.String("http", "", "serve JSON stats and /metrics on this address (head mode)")
	replicas := flag.Int("replicas", core.DefaultReplicas,
		"replication degree k (head mode): keep hot chunks on k workers and re-home on failure; 1 disables")
	useQoS := flag.Bool("qos", false,
		"enable the QoS subsystem (head mode): per-tenant admission control, fair queuing, SLO-driven degradation")
	useAutoscale := flag.Bool("autoscale", false,
		"enable the elastic autoscaler (head mode): a hysteresis control loop that gracefully drains quiet workers (migrating their queued batch work and pre-warming survivors) and raises the desired-workers gauge under pressure; drained slots rejoin through the ordinary bring-up path")
	fracSlots := flag.Int("fracshare", 0,
		"fractional task slots per worker (head mode, §5.13): workers drain each of their two lanes (interactive, batch) with K executors and the head exports the fracshare_* busy-share gauges; 0 is one executor a lane")
	usePrefetch := flag.Bool("prefetch", false,
		"enable predictive chunk prefetching (head mode, OURS scheduler): warm predicted bricks into worker caches during idle windows")
	journalPath := flag.String("journal", "",
		"write-ahead journal path (head mode): log every recoverable mutation to this file and a snapshot to <path>.snap, enabling standby takeover")
	standby := flag.Bool("standby", false,
		"recover head state from the -journal snapshot + log instead of starting fresh (head mode); workers reattach via -reconnect")
	reconnect := flag.Bool("reconnect", false,
		"keep reconnecting across head restarts with exponential backoff, resyncing state with a recovered head (worker mode)")
	retries := flag.Int("retries", 0, "reconnect attempt budget (worker mode); 0 selects the default")
	netfaults := flag.String("netfaults", "",
		"inject seeded network chaos on this worker's link (worker mode), e.g. drop=0.02,dup=0.05,reorder=0.02,corrupt=0.01,delay=0.1,maxdelay=50ms,seed=42")
	flag.Parse()

	catalog := service.NewCatalog()
	if err := catalog.LoadDir(*data); err != nil {
		log.Fatalf("vizserver: loading catalog from %s: %v", *data, err)
	}
	if catalog.Len() == 0 {
		log.Fatalf("vizserver: no datasets found under %s (generate some with volgen)", *data)
	}
	log.Printf("catalog: %v", catalog.Names())

	quota, err := parseBytes(*mem)
	if err != nil {
		log.Fatal("vizserver: ", err)
	}

	switch *mode {
	case "head":
		sched, err := experiments.SchedulerByName(*schedName)
		if err != nil {
			log.Fatal("vizserver: ", err)
		}
		// configure applies the extension flags to every head of the plane.
		configure := func(h *service.Head) {
			h.Replicas = *replicas
			if *useQoS {
				h.QoS = qos.DefaultConfig()
			}
			if *usePrefetch {
				h.Prefetch = prefetch.DefaultConfig()
			}
			if *useAutoscale {
				h.Autoscale = autoscale.DefaultConfig()
			}
			if *fracSlots > 0 {
				h.FracShare = &fracshare.Config{Slots: *fracSlots}
			}
		}
		// The journal/standby failover path is per-head: replaying one
		// shard's WAL against tables fed by the cross-shard directory would
		// diverge, so the combination is rejected until shard-local journals
		// are wired.
		if *shards > 1 && (*journalPath != "" || *standby) {
			log.Fatal("vizserver: -shards is incompatible with -journal/-standby (shard-local journals are not wired yet)")
		}
		if *standby && *journalPath == "" {
			log.Fatal("vizserver: -standby requires -journal")
		}
		// One plane of -shards heads (§5.11); with one shard it is a lone
		// head, which is what -journal and -standby act on.
		mh, err := service.NewMultiHead(*shards, func() core.Scheduler {
			s, _ := experiments.SchedulerByName(*schedName) // the name resolved above
			return s
		}, catalog, quota, core.DefaultCostModel())
		if err != nil {
			log.Fatal("vizserver: ", err)
		}
		mh.Configure(configure)
		head := mh.Shard(0)
		if head.QoS != nil {
			log.Printf("head: QoS enabled (admission control + fair queuing + degradation ladder)")
		}
		if head.Prefetch != nil {
			log.Printf("head: predictive prefetching enabled (Markov trajectory + frequency prior, governed warming)")
		}
		if head.Autoscale != nil {
			log.Printf("head: elastic autoscaling enabled (hysteresis control loop, graceful drains, desired-workers gauge)")
		}
		if head.FracShare != nil {
			log.Printf("head: fractional capacity enabled (%d task slots per worker, busy-share gauges)", head.FracShare.SlotCount())
		}
		wl, err := transport.ListenTCP(*workerAddr)
		if err != nil {
			log.Fatal("vizserver: ", err)
		}
		if *journalPath != "" {
			// A standby appends to the journal it recovers from.
			mode := os.O_CREATE | os.O_TRUNC
			if *standby {
				mode = os.O_APPEND
			}
			jf, err := os.OpenFile(*journalPath, os.O_WRONLY|mode, 0o644)
			if err != nil {
				log.Fatal("vizserver: ", err)
			}
			head.Journal = journal.NewWriter(jf, 8)
		}
		if *standby {
			// Warm-standby takeover (§5.10): rebuild the lost head's tables
			// from the snapshot + journal, then let workers resync in.
			st, err := recoverState(*journalPath, core.DefaultCostModel())
			if err != nil {
				log.Fatal("vizserver: ", err)
			}
			if err := head.StartRecovered(st); err != nil {
				log.Fatal("vizserver: ", err)
			}
			log.Printf("head: standby takeover complete; waiting for workers to resync on %s", wl.Addr())
		} else {
			log.Printf("head: %d shard(s) waiting for %d workers on %s", *shards, *workers, wl.Addr())
			for i := 0; i < *workers; i++ {
				conn, err := wl.Accept()
				if err != nil {
					log.Fatal("vizserver: ", err)
				}
				s, err := mh.AddWorker(conn)
				if err != nil {
					log.Fatal("vizserver: ", err)
				}
				log.Printf("head: worker %d/%d registered with shard %d", i+1, *workers, s)
			}
			if err := mh.Start(); err != nil {
				log.Fatal("vizserver: ", err)
			}
			if *journalPath != "" {
				// The genesis snapshot the journal replays on top of. Health
				// records written before the capture replay as guarded no-ops.
				snap, err := head.Snapshot()
				if err != nil {
					log.Fatal("vizserver: ", err)
				}
				raw, err := snap.Encode()
				if err != nil {
					log.Fatal("vizserver: ", err)
				}
				if err := os.WriteFile(*journalPath+".snap", raw, 0o644); err != nil {
					log.Fatal("vizserver: ", err)
				}
				log.Printf("head: journaling to %s (snapshot at %s.snap)", *journalPath, *journalPath)
			}
		}
		// Keep the registration port open: crashed, partitioned or drained
		// workers reattach here, and a standby's workers resync here; the
		// shard index echoed from a worker's original hello ack routes it to
		// the owning dispatcher.
		go func() {
			for {
				conn, err := wl.Accept()
				if err != nil {
					return
				}
				if err := mh.Rejoin(conn); err != nil {
					log.Printf("head: rejoin: %v", err)
				}
			}
		}()
		if *httpAddr != "" {
			go func() {
				log.Printf("head: stats on http://%s/ and /metrics", *httpAddr)
				if err := http.ListenAndServe(*httpAddr, mh.StatsHandler()); err != nil {
					log.Printf("head: stats server: %v", err)
				}
			}()
		}
		cl, err := transport.ListenTCP(*clientAddr)
		if err != nil {
			log.Fatal("vizserver: ", err)
		}
		log.Printf("head: serving clients on %s with %s scheduling on %d shard(s)", cl.Addr(), sched.Name(), *shards)
		mh.ServeClients(cl)

	case "worker":
		if *name == "" {
			host, _ := os.Hostname()
			*name = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		var inj *transport.FaultInjector
		if *netfaults != "" {
			cfg, err := parseFaults(*netfaults)
			if err != nil {
				log.Fatal("vizserver: ", err)
			}
			inj = transport.NewFaultInjector(cfg)
			log.Printf("worker %s: network chaos enabled: %s", *name, *netfaults)
		}
		dial := func() (transport.Conn, error) {
			conn, err := transport.DialTCP(*connect)
			if err != nil {
				return nil, err
			}
			if inj != nil {
				conn = inj.Wrap(conn)
			}
			return conn, nil
		}
		w := service.NewWorker(*name, catalog, quota)
		log.Printf("worker %s: serving %v with %v cache", *name, catalog.Names(), quota)
		if *reconnect {
			if err := w.ServeLoop(dial, service.ReconnectConfig{Retries: *retries}); err != nil {
				log.Fatal("vizserver: ", err)
			}
		} else {
			conn, err := dial()
			if err != nil {
				log.Fatal("vizserver: ", err)
			}
			if err := w.Serve(conn); err != nil {
				log.Fatal("vizserver: ", err)
			}
		}
		log.Printf("worker %s: head closed the connection; exiting", *name)

	default:
		log.Fatalf("vizserver: unknown -mode %q", *mode)
	}
}
