package service

import (
	"fmt"
	"net/http"
	"sync"

	"vizsched/internal/core"
	"vizsched/internal/shard"
	"vizsched/internal/transport"
	"vizsched/internal/units"
)

// MultiHead is the sharded control plane (§5.11): N independent Heads, each
// a full dispatcher over its own worker slice, coordinated only through a
// shared chunk directory. Sessions are routed to shards by consistent hash
// with tenant affinity — a tenant's (or, for the default tenant, an
// action's) requests always land on the same shard, so per-session ordering
// and per-tenant QoS state never span shards. No dispatch decision takes a
// cross-shard lock: the directory's striped read paths are the only shared
// state, and they carry facts (residency, estimates), not authority.
//
// Workers are placed round-robin across shards at registration; the hello
// ack tells each worker its shard. Client connections may be served by any
// shard — MultiHead.HandleClient routes each request to its owner, and
// replies multiplex safely over the shared connection because transport
// sends are frame-atomic.
//
// A one-shard plane is a lone head: it builds no directory, and its head
// publishes nothing and reads no shared estimate.
type MultiHead struct {
	heads []*Head
	ring  *shard.Ring
	dir   *shard.Directory // built at Start; nil with one shard

	mu      sync.Mutex
	total   int // global worker count, and the round-robin placement cursor
	started bool
}

// shardSlot is a head's place in a sharded plane: its index among n shards
// and the directory they share. The zero value, and a one-shard plane's slot
// (no directory), are a lone head.
type shardSlot struct {
	index, n int
	dir      *shard.Directory
}

// global maps a local node to its plane-wide ID. Placement is round-robin,
// so local slot l of shard i is global worker l·n + i.
func (s shardSlot) global(node core.NodeID) int { return int(node)*s.n + s.index }

// publish hands a completion the head's tables have just folded in to the
// directory's one publication rule.
func (s shardSlot) publish(tables *core.HeadState, res core.TaskResult) {
	if s.dir != nil {
		s.dir.Publish(tables, res, s.global)
	}
}

// dropNode retracts a node the head has declared down or drained.
func (s shardSlot) dropNode(node core.NodeID) {
	if s.dir != nil {
		s.dir.DropNode(s.global(node))
	}
}

// NewMultiHead builds a sharded control plane over the catalog. Each shard
// gets its own scheduler from newSched — scheduler tables are shard-local by
// design; only the directory is shared. Configuration applied through
// Configure before AddWorker/Start reaches every shard.
func NewMultiHead(shards int, newSched func() core.Scheduler, catalog *Catalog, memQuota units.Bytes, model core.CostModel) (*MultiHead, error) {
	if shards < 1 {
		return nil, fmt.Errorf("service: need at least one shard, got %d", shards)
	}
	if newSched == nil {
		return nil, fmt.Errorf("service: NewMultiHead needs a scheduler factory")
	}
	m := &MultiHead{ring: shard.NewRing(shards)}
	for i := 0; i < shards; i++ {
		h := NewHead(newSched(), catalog, memQuota, model)
		h.shard = shardSlot{index: i, n: shards}
		m.heads = append(m.heads, h)
	}
	return m, nil
}

// Configure runs fn on every shard head — the sharded analogue of the
// configure hook in StartClusterWith. Must be called before AddWorker/Start.
func (m *MultiHead) Configure(fn func(*Head)) {
	for _, h := range m.heads {
		fn(h)
	}
}

// Shard returns shard i's head, for introspection and tests.
func (m *MultiHead) Shard(i int) *Head { return m.heads[i] }

// StatsHandler serves every shard's counters on one pair of pages: JSON / is
// an array of snapshots in shard order, and each /metrics sample carries
// shard="i" as its first label. A one-shard plane's pages are a lone head's.
func (m *MultiHead) StatsHandler() http.Handler { return statsHandler(m.heads) }

// Ring exposes the session→shard hash ring.
func (m *MultiHead) Ring() *shard.Ring { return m.ring }

// Directory exposes the shared chunk directory: nil before Start, and for a
// one-shard plane.
func (m *MultiHead) Directory() *shard.Directory { return m.dir }

// AddWorker registers a connected worker with the next shard round-robin.
// It must be called before Start. Returns the shard the worker landed on.
func (m *MultiHead) AddWorker(conn transport.Conn) (int, error) {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return 0, fmt.Errorf("service: AddWorker after Start")
	}
	s := m.total % len(m.heads)
	m.total++
	m.mu.Unlock()
	return s, m.heads[s].AddWorker(conn)
}

// Rejoin routes a reconnecting worker to the shard that owns its slot. The
// hello ack of the original registration told the worker its shard index
// (HelloBody.Shard); the worker echoes it when redialing, so routing needs
// no shared lookup table — decode once here, then hand the connection to
// the owning head's ordinary rejoin path. Valid after Start; safe to call
// from any goroutine.
func (m *MultiHead) Rejoin(conn transport.Conn) error {
	hello, err := recvHello(conn, "rejoin hello")
	if err != nil {
		conn.Close()
		return err
	}
	if hello.Shard < 0 || hello.Shard >= len(m.heads) {
		conn.Close()
		return fmt.Errorf("service: rejoin hello names shard %d of %d", hello.Shard, len(m.heads))
	}
	return m.heads[hello.Shard].rejoinDecoded(conn, hello)
}

// Start builds the shared directory, its home sets bounded by the configured
// replication degree, and launches every shard's dispatcher. Every shard
// needs at least one worker — with fewer workers than shards the plane
// cannot start.
func (m *MultiHead) Start() error {
	m.mu.Lock()
	m.started = true
	total := m.total
	m.mu.Unlock()
	if total < len(m.heads) {
		return fmt.Errorf("service: %d shards need at least %d workers, have %d", len(m.heads), len(m.heads), total)
	}
	if len(m.heads) > 1 {
		k := 1
		for _, h := range m.heads {
			k = max(k, h.Replicas)
		}
		m.dir = shard.NewDirectory(len(m.heads), k)
		for _, h := range m.heads {
			h.shard.dir = m.dir
		}
	}
	for i, h := range m.heads {
		if err := h.Start(); err != nil {
			for _, prev := range m.heads[:i] {
				prev.Stop()
			}
			return fmt.Errorf("service: starting shard %d: %w", i, err)
		}
	}
	return nil
}

// Stop shuts every shard down and waits for their dispatchers to exit.
func (m *MultiHead) Stop() {
	for _, h := range m.heads {
		h.Stop()
	}
}

// Owner returns the shard head that owns the request's session: tenant
// affinity when a tenant is named, action affinity for the default tenant.
func (m *MultiHead) Owner(req RenderBody) *Head {
	return m.heads[m.ring.Owner(core.TenantID(req.Tenant), core.ActionID(req.Action))]
}

// HandleClient serves one client connection against the whole plane: each
// render request is routed to its owning shard, and replies flow back over
// the shared connection under the request's message ID.
func (m *MultiHead) HandleClient(conn transport.Conn) { serveClient(conn, m.Owner) }

// ServeClients accepts client connections until the listener closes.
func (m *MultiHead) ServeClients(l transport.Listener) { acceptClients(l, m.HandleClient) }

// MultiCluster is the in-process form of a sharded deployment: a MultiHead
// plus its workers wired over channel transports, mirroring Cluster.
type MultiCluster struct {
	MH      *MultiHead
	workers []*Worker
	wg      sync.WaitGroup
}

// StartMultiCluster builds and starts an in-process sharded service:
// `shards` heads over `nodes` workers placed round-robin. configure (if
// non-nil) runs on every shard head before workers attach.
func StartMultiCluster(shards int, newSched func() core.Scheduler, catalog *Catalog, nodes int, quota units.Bytes, configure func(*Head)) (*MultiCluster, error) {
	if nodes < shards {
		return nil, fmt.Errorf("service: %d shards need at least %d workers", shards, shards)
	}
	mh, err := NewMultiHead(shards, newSched, catalog, quota, core.DefaultCostModel())
	if err != nil {
		return nil, err
	}
	mh.Configure(func(h *Head) {
		h.Logf = func(string, ...any) {} // quiet by default; callers can reassign
	})
	if configure != nil {
		mh.Configure(configure)
	}
	mc := &MultiCluster{MH: mh}
	for i := 0; i < nodes; i++ {
		w := NewWorker(fmt.Sprintf("worker-%d", i), catalog, quota)
		w.Logf = mh.heads[0].Logf
		headSide, workerSide := transport.Pipe()
		mc.workers = append(mc.workers, w)
		mc.wg.Add(1)
		go func() {
			defer mc.wg.Done()
			_ = w.Serve(workerSide)
		}()
		if _, err := mh.AddWorker(headSide); err != nil {
			return nil, err
		}
	}
	if err := mh.Start(); err != nil {
		return nil, err
	}
	return mc, nil
}

// locate maps a global worker index to its (shard, local slot) under the
// round-robin placement AddWorker uses.
func (m *MultiHead) locate(g int) (shardIdx, local int) {
	return g % len(m.heads), g / len(m.heads)
}

// KillWorker forcibly closes global worker g's connection — fault injection
// for tests, routed to the owning shard's dispatcher.
func (mc *MultiCluster) KillWorker(g int) {
	s, local := mc.MH.locate(g)
	mc.MH.heads[s].KillWorker(core.NodeID(local))
}

// RejoinWorker restarts global worker g as a fresh process (cold cache) and
// reconnects it through MultiHead.Rejoin: the worker echoes the shard index
// its original registration ack assigned, and the plane routes the
// connection to that shard without consulting any shared table. The owning
// shard must currently consider the slot down.
func (mc *MultiCluster) RejoinWorker(g int) error {
	if g < 0 || g >= len(mc.workers) {
		return fmt.Errorf("service: no such worker %d", g)
	}
	old := mc.workers[g]
	w := NewWorker(old.Name, old.catalog, old.quota)
	w.Logf = mc.MH.heads[0].Logf
	// A restarted process learns its shard the way an operator would tell
	// it: from the slot it is reclaiming.
	w.shard.Store(int64(old.Shard()))
	_, local := mc.MH.locate(g)
	headSide, workerSide := transport.Pipe()
	mc.workers[g] = w
	mc.wg.Add(1)
	go func() {
		defer mc.wg.Done()
		_ = w.Rejoin(workerSide, local)
	}()
	return mc.MH.Rejoin(headSide)
}

// Worker returns the cluster's global worker i, for tests that inspect
// worker-side state.
func (mc *MultiCluster) Worker(i int) *Worker {
	if i < 0 || i >= len(mc.workers) {
		return nil
	}
	return mc.workers[i]
}

// Connect returns a client attached to the sharded plane.
func (mc *MultiCluster) Connect() *Client {
	clientSide, headSide := transport.Pipe()
	go mc.MH.HandleClient(headSide)
	return NewClient(clientSide)
}

// Stop shuts down every shard and waits for the workers to exit.
func (mc *MultiCluster) Stop() {
	mc.MH.Stop()
	mc.wg.Wait()
}
