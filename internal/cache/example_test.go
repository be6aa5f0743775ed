package cache_test

import (
	"fmt"

	"vizsched/internal/cache"
	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// A node's main memory holds data chunks under a byte quota; the least
// recently used chunk is evicted when a new one arrives.
func ExampleNewLRU() {
	mem := cache.NewLRU(units.GB)
	a := volume.ChunkID{Dataset: 1, Index: 0}
	b := volume.ChunkID{Dataset: 1, Index: 1}
	c := volume.ChunkID{Dataset: 2, Index: 0}

	mem.Insert(a, 512*units.MB)
	mem.Insert(b, 512*units.MB)
	mem.Touch(a) // a is now hotter than b

	evicted := mem.Insert(c, 512*units.MB)
	fmt.Println("evicted:", evicted)
	fmt.Println("a resident:", mem.Contains(a))
	// Output:
	// evicted: [d1/c1]
	// a resident: true
}

// NewStore generalizes NewLRU with pluggable eviction policies for the ablation
// benchmarks.
func ExampleStore() {
	mem := cache.NewStore(cache.PolicyFIFO, units.GB, 0)
	a := volume.ChunkID{Dataset: 1, Index: 0}
	b := volume.ChunkID{Dataset: 1, Index: 1}
	mem.Insert(a, 512*units.MB)
	mem.Insert(b, 512*units.MB)
	mem.Touch(a) // FIFO ignores recency
	evicted := mem.Insert(volume.ChunkID{Dataset: 2, Index: 0}, 512*units.MB)
	fmt.Println("evicted:", evicted)
	// Output:
	// evicted: [d1/c0]
}
