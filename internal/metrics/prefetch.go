package metrics

import (
	"fmt"

	"vizsched/internal/units"
)

// PrefetchOutcome is the prefetching layer's run summary (§5.8): volume
// moved, and how the warmed chunks settled — demand-hit, hidden-hit
// (absorbed in flight), or evicted unused.
type PrefetchOutcome struct {
	// Issued counts directives the planner emitted; Loaded counts warms
	// that completed; Cancelled counts warms abandoned before completion
	// (node busy/failed or demand absorbed them).
	Issued    int64
	Loaded    int64
	Cancelled int64

	// Hits counts demand tasks that found their chunk prefetch-resident;
	// HiddenHits counts demand tasks that absorbed an in-flight warm and
	// paid only the remaining load time; Wasted counts warmed chunks
	// evicted before any demand touch.
	Hits       int64
	HiddenHits int64
	Wasted     int64

	// BytesMoved is the total warming volume the governor granted.
	BytesMoved units.Bytes
}

// String renders a one-line summary.
func (o *PrefetchOutcome) String() string {
	return fmt.Sprintf(
		"prefetch: issued=%d loaded=%d cancelled=%d hits=%d hidden=%d wasted=%d moved=%v",
		o.Issued, o.Loaded, o.Cancelled, o.Hits, o.HiddenHits, o.Wasted, o.BytesMoved)
}
