// Package shard is the multi-head control plane (DESIGN.md §5.11): the
// single dispatcher loop of internal/service — and its simulated twin in
// internal/sim — is the scaling ceiling ROADMAP names, because every admit,
// dispatch, and completion funnels through one goroutine no matter how
// cheap each scheduler cycle gets. This package partitions that funnel.
//
// The design has three parts, each deliberately small:
//
//   - Ring: a consistent-hash partition of sessions across N head shards.
//     Hashing is on the session (core.ActionID) with tenant affinity: jobs
//     of a non-default tenant all map through the tenant's hash, so one
//     shard owns a tenant's whole QoS state (token buckets, DRR deficits)
//     and fair-queue ordering never crosses a shard boundary. Jump
//     consistent hashing keeps the partition minimal under resizing.
//
//   - Directory: the shared chunk directory that keeps the paper's locality
//     tables coherent across shards without funneling dispatch through one
//     lock. Each shard's dispatcher remains single-threaded over its own
//     HeadState; the directory carries only the slow-moving cross-shard
//     facts — observed Estimate[c] values, global chunk residency, and
//     replica home sets bounded by k — behind striped RW-locks so shards
//     touching different chunks never contend.
//
//   - The donation board (part of Directory): idle shards advertise spare
//     capacity, loaded shards advertise batch backlog, and a donation moves
//     queued batch jobs from the hottest shard to an idle one. Donated jobs
//     are popped in DRR order from the donor's fair queue, so a tenant's
//     batch ordering is preserved — the invariant the property suite checks.
//
// A shard is exactly the recovered-head unit of §5.10: an independent
// dispatcher over a partition of the key space, with its own journal and
// tables. The directory is soft state — lost entries only cost estimate
// warm-up, never correctness.
package shard

import (
	"fmt"

	"vizsched/internal/units"
)

// HeadCost prices one shard's control-plane work in virtual time — the
// serial resource the simulator charges per dispatcher operation. The
// defaults are calibrated so a head saturates near a thousand admissions
// per second (parse + admission control + queue insert on 2012-era cores),
// which is what makes the shardsweep's overload scenario bind on the
// control plane rather than the GPUs.
type HeadCost struct {
	// Admit is charged per arriving request: decode, admission control,
	// queue insertion.
	Admit units.Duration
	// Dispatch is charged per job that receives assignments in a scheduler
	// pass: placement bookkeeping, task encode, send.
	Dispatch units.Duration
	// Complete is charged per completion report folded into the tables.
	Complete units.Duration
}

// DefaultHeadCost is what sim.NewSharded charges when Config.HeadCost is
// nil. The shardsweep experiment sets its own costs.
func DefaultHeadCost() HeadCost {
	return HeadCost{
		Admit:    800 * units.Microsecond,
		Dispatch: 120 * units.Microsecond,
		Complete: 40 * units.Microsecond,
	}
}

// Partition splits p nodes across n shards as contiguous ranges, remainder
// to the low shards: shard i owns [Start, Start+Count). Contiguity keeps
// the global↔local node-ID mapping a subtraction.
type Partition struct {
	Start, Count int
}

// SplitNodes partitions p nodes across n shards. Every shard receives at
// least one node; p < n is a configuration error.
func SplitNodes(p, n int) []Partition {
	if n <= 0 || p < n {
		panic(fmt.Sprintf("shard: cannot split %d nodes across %d shards", p, n))
	}
	parts := make([]Partition, n)
	base, extra := p/n, p%n
	start := 0
	for i := range parts {
		count := base
		if i < extra {
			count++
		}
		parts[i] = Partition{Start: start, Count: count}
		start += count
	}
	return parts
}
