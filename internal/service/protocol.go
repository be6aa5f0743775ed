package service

import (
	"vizsched/internal/transport"
)

// HelloBody introduces a worker to the head. The head replies with its own
// HelloBody carrying the NodeID the worker is registered under, which the
// worker presents (with Rejoin set) when reconnecting after a failure.
type HelloBody struct {
	Name     string
	MemQuota int64 // bytes the worker will dedicate to its brick cache
	// NodeID is the slot this worker occupies. In the head's ack it is the
	// assignment; in a rejoin hello it is the identity being reclaimed.
	NodeID int
	// Rejoin marks a reconnection after a failure: the head restores the
	// node's slot (cold cache) instead of registering a new worker.
	Rejoin bool
	// Shard, in the head's ack, is the shard index of the head this worker
	// registered with (§5.11) — zero for a standalone head. The worker echoes
	// it in rejoin/resync hellos so MultiHead.Rejoin can route the connection
	// to the owning shard without consulting any shared state (-1 if the
	// worker never completed a registration).
	Shard int
	// Slots, in the head's ack, is the fractional-capacity slot count K
	// (§5.13): the worker drains each of its two lanes — interactive tasks,
	// and batch tasks with warms (§5.18) — with K executors, letting the
	// operating system time-slice the node the way the simulator's share
	// model prices it. Zero means one, the serial worker.
	Slots int
	// Resync marks a reconnection to a recovered (or restarted) head
	// (§5.10): alongside Rejoin, the worker re-announces its full state so
	// the head can reconcile tables rebuilt from snapshot+journal with
	// ground truth. Cached lists the worker's actual brick residency
	// (MRU-first); Completed lists recently finished tasks whose results the
	// worker still retains and can replay without re-rendering.
	Resync    bool
	Cached    []ChunkRef
	Completed []TaskRef
	// Outstanding, in the head's ack to a resync hello, lists the tasks the
	// head still considers in-flight on this node. The worker replays
	// retained results for any it already finished — the completed-but-
	// unacked reconciliation — and re-executes nothing else unasked.
	Outstanding []TaskRef
}

// TaskRef names one task on the wire.
type TaskRef struct {
	JobID     uint64
	TaskIndex int
}

// RenderBody is a client's rendering request: a camera over a named dataset.
type RenderBody struct {
	Dataset string
	// Camera orbit parameters (radians, radians, distance in unit-cube
	// multiples) — the interaction parameters a viewer would send.
	Angle, Elevation, Dist float64
	Width, Height          int
	// Mode selects the render mode (raycast.ModeComposite, ModeMIP,
	// ModeIso) and IsoValue its threshold.
	Mode     int
	IsoValue float32
	// Batch marks the request deferrable (animation frame) rather than
	// interactive.
	Batch bool
	// Action groups requests of one user session for scheduling fairness.
	Action int
	// Tenant identifies the customer the request bills to; the QoS layer
	// meters admission and queueing per tenant. Zero is the default tenant.
	Tenant int
	// Key, when non-zero, makes the request idempotent: the head remembers
	// the job under this client-chosen key, and a re-submission after a
	// head failover (or a lost reply) re-attaches to the in-flight job or
	// returns the retained result instead of rendering again. Zero opts out.
	Key uint64
}

// TaskBody assigns one chunk of a render job to a worker.
type TaskBody struct {
	JobID     uint64
	TaskIndex int
	Dataset   string
	Chunk     int
	Render    RenderBody
}

// ChunkRef names a chunk on the wire.
type ChunkRef struct {
	Dataset string
	Index   int
}

// FragmentBody returns one rendered fragment plus execution facts the head
// uses to correct its tables. The pixels are a rectangle of the job's frame:
// W×H of them, row-major, the first at the frame's (X0,Y0); everything the
// fragment does not carry is transparent. A brick that drew nothing reports
// W = H = 0 and no Data.
type FragmentBody struct {
	JobID     uint64
	TaskIndex int
	X0, Y0    int
	W, H      int
	// Codec names the pixel encoding of Data; CodecRuns is the only one.
	Codec int
	Data  []byte
	Depth float64
	Hit   bool
	// ExecNanos is what the task cost the node: load, render and pixel
	// encode, wall clock. For a batch task that is net of the time the
	// worker had interactive tasks in flight meanwhile — the render stood
	// aside for them (§5.18), and their own fragments report that time.
	ExecNanos int64
	// Evicted lists bricks the worker's cache dropped to make room.
	Evicted []ChunkRef
}

// PrefetchBody asks a worker to warm one chunk into its cache ahead of
// predicted demand (§5.8). The worker admits it at the cache's cold end —
// never displacing recently-demanded bricks — and reports the outcome with
// a PrefetchDoneBody.
type PrefetchBody struct {
	Dataset string
	Chunk   int
}

// PrefetchDoneBody reports one warm's outcome. Resident means the chunk was
// already cached (nothing moved); Loaded means it was read from disk and
// admitted cold. Both false means the load failed or the cache refused the
// cold insert, and the warm was dropped.
type PrefetchDoneBody struct {
	Dataset  string
	Chunk    int
	Resident bool
	Loaded   bool
	// Nanos is the wall time the load took, for operator visibility.
	Nanos int64
	// Evicted lists bricks the cold insert displaced.
	Evicted []ChunkRef
}

// ResultBody returns the final composited image to the client.
type ResultBody struct {
	Width, Height int
	PNG           []byte
	ElapsedNanos  int64
	Hits, Misses  int
}

// ErrorBody reports a failed request.
type ErrorBody struct {
	Msg string
}

// send encodes body and ships it with the given kind and id.
func send(c transport.Conn, kind transport.Kind, id uint64, body transport.BodyAppender) error {
	raw, err := transport.Encode(body)
	if err != nil {
		return err
	}
	return c.Send(transport.Message{Kind: kind, ID: id, Body: raw})
}
