package transport

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// FaultConfig parameterizes a FaultInjector. Each probability is evaluated
// independently per message in a fixed order (drop, corrupt, duplicate,
// reorder, delay) from a seeded per-connection stream, so a single-threaded
// sender sees a reproducible fault sequence for a given seed.
type FaultConfig struct {
	// Seed fixes the fault decision streams; connections wrapped by the
	// same injector derive independent sub-streams from it.
	Seed int64
	// Drop is the probability a message is silently discarded.
	Drop float64
	// Corrupt is the probability a message's body is bit-flipped. The
	// mutation happens above the wire codec, modeling payload corruption
	// that frame CRCs cannot see — the receiver's body parser and its checks
	// on the decoded values must cope with it.
	Corrupt float64
	// Duplicate is the probability a message is delivered twice.
	Duplicate float64
	// Reorder is the probability a message is held back and released after
	// the next message on the same connection (a one-slot reorder).
	Reorder float64
	// Delay is the probability a message (and everything behind it on the
	// ordered pipe) stalls for a uniform duration in (0, MaxDelay].
	Delay float64
	// MaxDelay bounds the stall; zero disables delays.
	MaxDelay time.Duration
}

// FaultStats counts the injector's interventions across all wrapped
// connections.
type FaultStats struct {
	Sent, Dropped, Corrupted, Duplicated, Reordered, Delayed, Partitioned int64
}

// FaultInjector wraps Conns with seeded network chaos: drop, corrupt,
// duplicate, reorder, delay, and an injector-wide partition switch that
// black-holes every wrapped connection until healed. KindHello messages are
// exempt (outside partitions) so handshakes and resync announcements can
// always complete — the chaos is aimed at steady-state traffic.
type FaultInjector struct {
	cfg    FaultConfig
	nconns int64
	parted atomic.Bool

	sent, dropped, corrupted, duplicated, reordered, delayed, partitioned atomic.Int64
}

// NewFaultInjector returns an injector for cfg.
func NewFaultInjector(cfg FaultConfig) *FaultInjector {
	return &FaultInjector{cfg: cfg}
}

// Partition starts black-holing every wrapped connection (both directions
// when both ends are wrapped). Sends succeed from the caller's view — the
// bytes just never arrive — matching how a real partition looks to a sender
// with a full socket buffer.
func (fi *FaultInjector) Partition() { fi.parted.Store(true) }

// Heal ends the partition.
func (fi *FaultInjector) Heal() { fi.parted.Store(false) }

// Partitioned reports whether the injector is currently partitioned.
func (fi *FaultInjector) Partitioned() bool { return fi.parted.Load() }

// Stats returns a snapshot of intervention counts.
func (fi *FaultInjector) Stats() FaultStats {
	return FaultStats{
		Sent:        fi.sent.Load(),
		Dropped:     fi.dropped.Load(),
		Corrupted:   fi.corrupted.Load(),
		Duplicated:  fi.duplicated.Load(),
		Reordered:   fi.reordered.Load(),
		Delayed:     fi.delayed.Load(),
		Partitioned: fi.partitioned.Load(),
	}
}

// Wrap returns a Conn that applies the injector's faults to every Send on c.
// Faults are sender-side: wrap both ends of a pipe to fault both directions.
func (fi *FaultInjector) Wrap(c Conn) Conn {
	idx := atomic.AddInt64(&fi.nconns, 1)
	return &faultConn{
		next: c,
		fi:   fi,
		rng:  rand.New(rand.NewSource(fi.cfg.Seed + 1000003*idx)),
	}
}

// faultConn applies seeded faults on the send side of one connection.
type faultConn struct {
	next Conn
	fi   *FaultInjector
	mu   sync.Mutex
	rng  *rand.Rand
	held *Message // one-slot reorder buffer
}

// Send implements Conn. The mutex serializes concurrent senders so the
// decision stream stays well-defined; for deterministic tests use a single
// sending goroutine per wrapped connection.
func (c *faultConn) Send(m Message) error {
	fi := c.fi
	if fi.parted.Load() {
		fi.partitioned.Add(1)
		return nil // black hole: the sender cannot tell
	}
	if m.Kind == KindHello {
		return c.next.Send(m)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	fi.sent.Add(1)
	cfg := &fi.cfg
	if cfg.Drop > 0 && c.rng.Float64() < cfg.Drop {
		fi.dropped.Add(1)
		return nil
	}
	if cfg.Corrupt > 0 && c.rng.Float64() < cfg.Corrupt && len(m.Body) > 0 {
		fi.corrupted.Add(1)
		body := make([]byte, len(m.Body))
		copy(body, m.Body)
		body[c.rng.Intn(len(body))] ^= 1 << uint(c.rng.Intn(8))
		m.Body = body
	}
	dup := cfg.Duplicate > 0 && c.rng.Float64() < cfg.Duplicate
	reorder := cfg.Reorder > 0 && c.rng.Float64() < cfg.Reorder
	if cfg.Delay > 0 && cfg.MaxDelay > 0 && c.rng.Float64() < cfg.Delay {
		fi.delayed.Add(1)
		time.Sleep(time.Duration(1 + c.rng.Int63n(int64(cfg.MaxDelay))))
	}
	if reorder && c.held == nil {
		// Hold this message; it ships after the next one (or on Close).
		fi.reordered.Add(1)
		held := m
		c.held = &held
		return nil
	}
	if err := c.next.Send(m); err != nil {
		return err
	}
	if dup {
		fi.duplicated.Add(1)
		if err := c.next.Send(m); err != nil {
			return err
		}
	}
	if c.held != nil {
		held := *c.held
		c.held = nil
		return c.next.Send(held)
	}
	return nil
}

// Recv implements Conn.
func (c *faultConn) Recv() (Message, error) { return c.next.Recv() }

// Close implements Conn, flushing any held reordered message first so a
// clean shutdown does not silently lose the last frame.
func (c *faultConn) Close() error {
	c.mu.Lock()
	if c.held != nil {
		held := *c.held
		c.held = nil
		c.mu.Unlock()
		_ = c.next.Send(held)
	} else {
		c.mu.Unlock()
	}
	return c.next.Close()
}
