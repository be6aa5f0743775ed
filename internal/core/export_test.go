package core

import (
	"math/rand"
	"reflect"
	"testing"

	"vizsched/internal/cache"
	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// mutateRandomly drives a HeadState through n random table mutations using
// the full public mutation surface, returning the jobs it fabricated so the
// same sequence can be replayed against a restored state.
func mutateRandomly(h *HeadState, rng *rand.Rand, n int) {
	now := units.Time(0)
	for i := 0; i < n; i++ {
		now = now.Add(units.Duration(rng.Intn(5)) * units.Millisecond)
		chunk := volume.ChunkID{Dataset: volume.DatasetID(rng.Intn(3)), Index: rng.Intn(16)}
		node := NodeID(rng.Intn(h.Nodes()))
		job := &Job{ID: JobID(i), Class: Class(rng.Intn(2)), Tasks: make([]Task, 1+rng.Intn(4))}
		t := &Task{Job: job, Chunk: chunk, Size: units.Bytes(1+rng.Intn(4)) * units.MB}
		switch rng.Intn(10) {
		case 0:
			h.MarkSuspect(node)
		case 1:
			h.MarkUp(node)
		case 2:
			if h.Nodes() > 1 && h.aliveCount() > 1 {
				h.MarkFailed(node)
			}
		case 3:
			h.MarkRepaired(node, now)
		case 4:
			h.LandWarm(chunk, node, t.Size, nil)
		default:
			if h.Health(node) != HealthUp {
				h.MarkRepaired(node, now)
			}
			pred := h.CommitAssign(t, node, now)
			if rng.Intn(2) == 0 {
				h.Correct(TaskResult{
					Task: t, Node: node, Hit: rng.Intn(2) == 0,
					Exec: pred + units.Duration(rng.Intn(3))*units.Millisecond, Predicted: pred,
				}, now.Add(pred))
			}
		}
	}
}

func (h *HeadState) aliveCount() int {
	n := 0
	for k := range h.Available {
		if h.health[k] == HealthUp {
			n++
		}
	}
	return n
}

func TestTableDumpRoundTripDeepEqual(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := NewHeadState(4, 16*units.MB, DefaultCostModel())
		h.SetReplication(2)
		mutateRandomly(h, rng, 300)

		dump := h.Dump()
		restored := LoadTables(dump, h.Model)
		again := restored.Dump()
		if !reflect.DeepEqual(dump, again) {
			t.Fatalf("seed %d: restored dump differs from original", seed)
		}

		// Behavioral equality: identical further mutations keep the states
		// in lockstep.
		rng2 := rand.New(rand.NewSource(seed + 100))
		rng3 := rand.New(rand.NewSource(seed + 100))
		mutateRandomly(h, rng2, 100)
		mutateRandomly(restored, rng3, 100)
		if !reflect.DeepEqual(h.Dump(), restored.Dump()) {
			t.Fatalf("seed %d: states diverged under identical mutations after restore", seed)
		}
	}
}

func TestResyncCacheAdoptsAnnouncedTruth(t *testing.T) {
	h := NewHeadState(2, 16*units.MB, DefaultCostModel())
	c0 := volume.ChunkID{Dataset: 0, Index: 0}
	c1 := volume.ChunkID{Dataset: 0, Index: 1}
	c2 := volume.ChunkID{Dataset: 0, Index: 2}
	h.Caches[0].Insert(c0, units.MB)
	h.LandWarm(c1, 0, units.MB, nil)
	h.LandWarm(c2, 0, units.MB, nil)

	// The worker announces: c2 survives, c1 is gone, and it holds c0 plus a
	// chunk the head never predicted.
	c3 := volume.ChunkID{Dataset: 0, Index: 3}
	var entries []cache.Entry
	for _, e := range h.Caches[0].Export() {
		if e.ID != c1 {
			entries = append(entries, e)
		}
	}
	entries = append(entries, cache.Entry{ID: c3, Size: units.MB})
	h.ResyncCache(0, entries)

	if !h.Caches[0].Contains(c3) || h.Caches[0].Contains(c1) {
		t.Fatalf("resync did not adopt announced contents: resident=%v", h.Caches[0].Resident())
	}
	if h.IsPrefetched(c1, 0) {
		t.Error("dead prefetched residency survived resync")
	}
	if !h.IsPrefetched(c2, 0) {
		t.Error("live prefetched residency was dropped by resync")
	}
	_, _, wasted := h.PrefetchAccuracy()
	if wasted != 1 {
		t.Errorf("wasted = %d, want 1 (the c1 warm died with the disconnect)", wasted)
	}
}
