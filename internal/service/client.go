package service

import (
	"bytes"
	"fmt"
	"image"
	"image/png"
	"sync"
	"time"

	"vizsched/internal/core"
	"vizsched/internal/transport"
	"vizsched/internal/units"
)

// RenderResult is a completed render as seen by a client.
type RenderResult struct {
	Image   image.Image
	PNG     []byte
	Elapsed time.Duration
	// Hits and Misses report how many of the job's chunks were already
	// resident on their workers.
	Hits, Misses int
}

// Client issues render requests to a head node over any transport. It is
// safe for concurrent use; requests are correlated by message ID so several
// renders (for instance, a batch animation) can be in flight at once.
type Client struct {
	conn transport.Conn

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan Outcome
	readErr error
	started bool
}

// Outcome is the resolution of an asynchronous render.
type Outcome struct {
	Result RenderResult
	Err    error
}

// NewClient wraps a connection to a head node.
func NewClient(conn transport.Conn) *Client {
	return &Client{conn: conn, pending: make(map[uint64]chan Outcome)}
}

// DialTCP connects a client to a head node's TCP address.
func DialTCP(addr string) (*Client, error) {
	conn, err := transport.DialTCP(addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// readLoop delivers responses to their waiting requests.
func (c *Client) readLoop() {
	for {
		msg, err := c.conn.Recv()
		if err != nil {
			c.mu.Lock()
			c.readErr = err
			for id, ch := range c.pending {
				ch <- Outcome{Err: fmt.Errorf("service: connection lost: %w", err)}
				delete(c.pending, id)
			}
			c.mu.Unlock()
			return
		}
		c.mu.Lock()
		ch := c.pending[msg.ID]
		delete(c.pending, msg.ID)
		c.mu.Unlock()
		if ch == nil {
			continue
		}
		switch msg.Kind {
		case transport.KindResult:
			var body ResultBody
			if err := transport.Decode(msg.Body, &body); err != nil {
				ch <- Outcome{Err: err}
				continue
			}
			decoded, err := png.Decode(bytes.NewReader(body.PNG))
			if err != nil {
				ch <- Outcome{Err: fmt.Errorf("service: decoding result: %w", err)}
				continue
			}
			ch <- Outcome{Result: RenderResult{
				Image:   decoded,
				PNG:     body.PNG,
				Elapsed: time.Duration(body.ElapsedNanos),
				Hits:    body.Hits,
				Misses:  body.Misses,
			}}
		case transport.KindError:
			var body ErrorBody
			_ = transport.Decode(msg.Body, &body)
			ch <- Outcome{Err: fmt.Errorf("service: %s", body.Msg)}
		}
	}
}

// Render issues one request and waits for its image.
func (c *Client) Render(req RenderBody) (RenderResult, error) {
	ch, err := c.RenderAsync(req)
	if err != nil {
		return RenderResult{}, err
	}
	r := <-ch
	return r.Result, r.Err
}

// RenderAsync issues a request and returns a channel that will receive the
// outcome — how a viewer pipelines interactive frames.
func (c *Client) RenderAsync(req RenderBody) (<-chan Outcome, error) {
	c.mu.Lock()
	if !c.started {
		c.started = true
		go c.readLoop()
	}
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	id := c.nextID
	ch := make(chan Outcome, 1)
	c.pending[id] = ch
	c.mu.Unlock()

	if err := send(c.conn, transport.KindRender, id, req); err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, err
	}
	return ch, nil
}

// Close tears the connection down.
func (c *Client) Close() error { return c.conn.Close() }

// Cluster is an in-process deployment: a control plane of one or more
// shard heads plus n workers wired over channel transports — the
// single-binary form used by the examples and the tests. Production
// deployments use cmd/vizserver and TCP. Head is shard 0; a one-shard
// cluster's plane is a lone head.
type Cluster struct {
	MH      *MultiHead
	Head    *Head
	workers []*Worker
	wg      sync.WaitGroup
}

// StartCluster builds and starts a one-shard in-process service over the
// catalog.
func StartCluster(sched core.Scheduler, catalog *Catalog, nodes int, quota units.Bytes) (*Cluster, error) {
	return StartClusterWith(sched, catalog, nodes, quota, nil)
}

// StartClusterWith is StartCluster with a configuration hook: configure (if
// non-nil) runs on the built head before Start, so fields that must be set
// pre-Start (QoS, MaxQueue, DropStale, deadlines) can be applied.
func StartClusterWith(sched core.Scheduler, catalog *Catalog, nodes int, quota units.Bytes, configure func(*Head)) (*Cluster, error) {
	return StartMultiCluster(1, func() core.Scheduler { return sched }, catalog, nodes, quota, configure)
}

// StartMultiCluster builds and starts an in-process service of `shards`
// heads over `nodes` workers placed round-robin. configure (if non-nil)
// runs on every shard head before workers attach.
func StartMultiCluster(shards int, newSched func() core.Scheduler, catalog *Catalog, nodes int, quota units.Bytes, configure func(*Head)) (*Cluster, error) {
	if nodes < shards {
		return nil, fmt.Errorf("service: %d shards need at least %d workers, have %d", shards, shards, nodes)
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
	cl := &Cluster{MH: mh, Head: mh.Shard(0)}
	for i := 0; i < nodes; i++ {
		w := NewWorker(fmt.Sprintf("worker-%d", i), catalog, quota)
		w.Logf = cl.Head.Logf
		headSide, workerSide := transport.Pipe()
		cl.workers = append(cl.workers, w)
		cl.wg.Add(1)
		go func() {
			defer cl.wg.Done()
			_ = w.Serve(workerSide)
		}()
		if _, err := mh.AddWorker(headSide); err != nil {
			return nil, err
		}
	}
	if err := mh.Start(); err != nil {
		return nil, err
	}
	return cl, nil
}

// KillWorker forcibly closes worker g's connection — fault injection for
// tests and demonstrations of §VI-D's fault tolerance, routed to the owning
// shard's dispatcher. A g outside the cluster is ignored.
func (cl *Cluster) KillWorker(g int) {
	if g < 0 || g >= len(cl.workers) {
		return
	}
	s, local := cl.MH.locate(g)
	cl.MH.heads[s].KillWorker(core.NodeID(local))
}

// RejoinWorker starts a fresh worker process (cold cache) that reclaims
// worker g's slot — the in-process form of restarting a crashed worker and
// pointing it back at the plane. The worker echoes the shard index its
// original registration ack assigned, and MultiHead.Rejoin routes the
// connection to that shard, which must currently consider the slot down.
func (cl *Cluster) RejoinWorker(g int) error {
	if g < 0 || g >= len(cl.workers) {
		return fmt.Errorf("service: no such worker %d", g)
	}
	old := cl.workers[g]
	w := NewWorker(old.Name, old.catalog, old.quota)
	w.Logf = cl.Head.Logf
	// A restarted process learns its shard the way an operator would tell
	// it: from the slot it is reclaiming.
	w.shard.Store(int64(old.Shard()))
	_, local := cl.MH.locate(g)
	headSide, workerSide := transport.Pipe()
	cl.workers[g] = w
	cl.wg.Add(1)
	go func() {
		defer cl.wg.Done()
		_ = w.Rejoin(workerSide, local)
	}()
	return cl.MH.Rejoin(headSide)
}

// Worker returns the cluster's worker i, for tests and examples that
// inspect worker-side state (retained results, cache contents).
func (cl *Cluster) Worker(i int) *Worker {
	if i < 0 || i >= len(cl.workers) {
		return nil
	}
	return cl.workers[i]
}

// ResyncTo re-homes every surviving worker of a one-shard cluster onto a
// recovered standby head (§5.10): each worker reconnects over a fresh pipe
// through the resync path, re-announcing its cache and retained
// completions. The in-process form of pointing the worker fleet at the
// address the standby took over. The standby replaces shard 0; the old head
// must already be stopped/crashed. A sharded cluster has no standby and is
// refused.
func (cl *Cluster) ResyncTo(head *Head) error {
	if n := len(cl.MH.heads); n != 1 {
		return fmt.Errorf("service: ResyncTo needs a one-shard cluster, have %d shards", n)
	}
	// The workers' previous serve sessions own their state; wait for the
	// dead head's connection closes to unwind them before re-entering.
	cl.wg.Wait()
	cl.MH.heads[0], cl.Head = head, head
	for i, w := range cl.workers {
		headSide, workerSide := transport.Pipe()
		cl.wg.Add(1)
		go func(w *Worker, node int, conn transport.Conn) {
			defer cl.wg.Done()
			_ = w.Resync(conn, node)
		}(w, i, workerSide)
		if err := head.Rejoin(headSide); err != nil {
			return err
		}
	}
	return nil
}

// Connect returns a client attached to the plane.
func (cl *Cluster) Connect() *Client {
	clientSide, headSide := transport.Pipe()
	go cl.MH.HandleClient(headSide)
	return NewClient(clientSide)
}

// Stop shuts down every shard and waits for the workers to exit.
func (cl *Cluster) Stop() {
	cl.MH.Stop()
	cl.wg.Wait()
}
