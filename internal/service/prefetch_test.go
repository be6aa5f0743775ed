package service

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"vizsched/internal/core"
	"vizsched/internal/journal"
	"vizsched/internal/prefetch"
	"vizsched/internal/transport"
	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// scrubCatalog writes n single-chunk datasets whose names sort in scrub
// order, so a client stepping through them in catalog order produces the
// dataset-delta trajectory the Markov predictor learns.
func scrubCatalog(t *testing.T, n int) *Catalog {
	t.Helper()
	dir := t.TempDir()
	cat := NewCatalog()
	g := volume.Generate(volume.Plume, 20, 20, 20)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("scrub%d", i)
		m, err := WriteDataset(filepath.Join(dir, name), name, g, 1, "plume")
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// TestPrefetchLiveServiceWarms drives the live service through a dataset
// scrub with prefetching on: after the first couple of steps the head's
// planner warms the next dataset's brick into the worker during the idle
// gap between frames, so later frames land as cache hits and the stats
// snapshot reports the warm → hit pipeline end to end.
func TestPrefetchLiveServiceWarms(t *testing.T) {
	cat := scrubCatalog(t, 6)
	cl, err := StartClusterWith(core.NewLocalityScheduler(2*units.Millisecond), cat, 1, 64*units.MB, func(h *Head) {
		h.Prefetch = prefetch.DefaultConfig()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	client := cl.Connect()
	defer client.Close()

	hits := 0
	for _, name := range cat.Names() {
		res, err := client.Render(RenderBody{
			Dataset: name,
			Angle:   0.4, Elevation: 0.2, Dist: 2.2,
			Width: 32, Height: 32,
			Action: 7,
		})
		if err != nil {
			t.Fatalf("render %s: %v", name, err)
		}
		hits += res.Hits
		// The idle gap the planner warms into; a real viewer thinks far
		// longer than this between frames.
		time.Sleep(80 * time.Millisecond)
	}

	s := cl.Head.Stats()
	if s.Prefetch == nil {
		t.Fatal("prefetch-enabled head reports no prefetch snapshot")
	}
	if s.Prefetch.Issued == 0 {
		t.Fatalf("no warms issued across a predictable scrub: %+v", s.Prefetch)
	}
	if s.Prefetch.Hits < 1 || hits < 1 {
		t.Fatalf("warmed bricks never hit: snapshot=%+v client hits=%d", s.Prefetch, hits)
	}
	if s.Prefetch.BytesMoved <= 0 {
		t.Fatalf("issued warms moved no bytes: %+v", s.Prefetch)
	}
	// The worker's own cache counters (satellite of §5.8): the scrub's
	// demand misses plus prefetch hits must all be visible.
	ws := cl.workers[0].CacheStats()
	if ws.Hits < int64(hits) || ws.Misses == 0 {
		t.Fatalf("worker cache counters inconsistent: %+v (client hits %d)", ws, hits)
	}
}

// TestPrefetchLiveServiceOffNoSnapshot: without a prefetch config the head
// must not expose a prefetch snapshot, issue directives, or touch the
// prediction tables.
func TestPrefetchLiveServiceOffNoSnapshot(t *testing.T) {
	cat := scrubCatalog(t, 2)
	cl, err := StartCluster(core.NewLocalityScheduler(2*units.Millisecond), cat, 1, 64*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	client := cl.Connect()
	defer client.Close()
	for _, name := range cat.Names() {
		if _, err := client.Render(RenderBody{
			Dataset: name,
			Angle:   0.4, Elevation: 0.2, Dist: 2.2,
			Width: 24, Height: 24,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if s := cl.Head.Stats(); s.Prefetch != nil {
		t.Fatalf("prefetch snapshot present on a plain head: %+v", s.Prefetch)
	}
}

// TestPrefetchDoneOutsideManifestIgnored: a worker reporting a landed warm
// of a brick the manifest does not have — past the dataset's last brick, or
// negative — is dropped. The head does not panic, its predicted caches stay
// as they were, and it journals nothing for the report.
func TestPrefetchDoneOutsideManifestIgnored(t *testing.T) {
	s := newSteppedHead(t, 2, func(h *Head) { h.Prefetch = &prefetch.Config{} })
	// One real warm first, so the caches the check compares are not empty.
	s.fromWorker(0, transport.KindPrefetchDone, PrefetchDoneBody{Dataset: "plume", Chunk: 1, Loaded: true})
	before := s.h.state.Dump()
	if len(before.Caches[0].Entries) != 1 {
		t.Fatalf("node 0 caches %v after a warm of plume brick 1, want that brick", before.Caches[0].Entries)
	}

	for _, chunk := range []int{99, 2, -1} {
		s.fromWorker(0, transport.KindPrefetchDone, PrefetchDoneBody{
			Dataset: "plume", Chunk: chunk, Loaded: true,
			Evicted: []ChunkRef{{Dataset: "plume", Index: 1}},
		})
		if err := s.h.state.Validate(); err != nil {
			t.Fatalf("after a warm of plume brick %d: %v", chunk, err)
		}
	}
	if after := s.h.state.Dump(); !reflect.DeepEqual(after, before) {
		t.Errorf("tables changed by warms outside the manifest:\n%+v\nwant\n%+v", after.Caches, before.Caches)
	}
	if err := s.h.Journal.Sync(); err != nil {
		t.Fatal(err)
	}
	recs, err := journal.ReadAll(bytes.NewReader(s.wal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	warms := 0
	for _, r := range recs {
		if r.Kind == journal.KindPrefetch {
			warms++
		}
	}
	if warms != 1 {
		t.Errorf("journal holds %d prefetch records, want the real warm's 1", warms)
	}
}

// TestPrefetchLiveWasteMirrorsTables: the stats pages count every warm the
// tables settle as wasted. One worker whose cache holds a brick and a half
// lands a warm of plume brick 0, then one of brick 1 that displaces it
// untouched.
func TestPrefetchLiveWasteMirrorsTables(t *testing.T) {
	s := newSteppedHead(t, 1, func(h *Head) {
		h.Prefetch = &prefetch.Config{}
		h.memQuota = h.chunkSize(volume.ChunkID{Dataset: h.dsIDs["plume"]}) * 3 / 2
	})
	check := func(step string, want int64) {
		t.Helper()
		_, _, wasted := s.h.state.PrefetchAccuracy()
		if got := s.h.Stats().Prefetch.Wasted; got != wasted || wasted != want {
			t.Errorf("after %s: stats count %d wasted warms, the tables %d; want %d", step, got, wasted, want)
		}
	}
	s.fromWorker(0, transport.KindPrefetchDone, PrefetchDoneBody{Dataset: "plume", Chunk: 0, Loaded: true})
	check("the warm of plume/0", 0)
	s.fromWorker(0, transport.KindPrefetchDone, PrefetchDoneBody{
		Dataset: "plume", Chunk: 1, Loaded: true,
		Evicted: []ChunkRef{{Dataset: "plume", Index: 0}},
	})
	check("the warm of plume/1 that evicted it", 1)
}

// TestPrefetchIdleTickReadsClockOnce: a scheduler tick with nothing queued
// plans warms over [now, now+ω) from one clock read, so λ is ω after now
// even on a clock that moves between reads.
func TestPrefetchIdleTickReadsClockOnce(t *testing.T) {
	var reads atomic.Int64
	s := newSteppedHead(t, 1, func(h *Head) {
		h.Prefetch = &prefetch.Config{}
		h.clock = func() time.Time { return time.Unix(1_000_000_000, reads.Add(1)*int64(time.Millisecond)) }
	})
	reads.Store(0)
	s.l.step(event{kind: evTick})
	if n := reads.Load(); n != 1 {
		t.Errorf("an idle tick read the clock %d times, want 1", n)
	}
}
