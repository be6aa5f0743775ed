package metrics

import (
	"fmt"
	"math"
	"strings"

	"vizsched/internal/units"
)

// Histogram is a streaming log-bucketed duration histogram: 8 buckets per
// octave from 1µs to ~1hr, constant memory, good-enough (±9%) quantiles.
// The paper reports mean latencies; a service operator wants tails too.
type Histogram struct {
	counts [bucketCount]int64
	total  int64
	// under counts observations below the first bucket's floor.
	under int64
}

const (
	histMin        = int64(units.Microsecond)
	bucketsPerOct  = 8
	octaves        = 32 // 1µs << 32 ≈ 1.2h
	bucketCount    = bucketsPerOct * octaves
	bucketGrowBase = 1.0905077326652577 // 2^(1/8)
)

// bucketFor maps a duration to its bucket index.
func bucketFor(d units.Duration) int {
	if int64(d) < histMin {
		return -1
	}
	idx := int(math.Log(float64(d)/float64(histMin)) / math.Log(bucketGrowBase))
	if idx >= bucketCount {
		idx = bucketCount - 1
	}
	return idx
}

// bucketFloor returns the lower bound of bucket i.
func bucketFloor(i int) units.Duration {
	return units.Duration(float64(histMin) * math.Pow(bucketGrowBase, float64(i)))
}

// Add records one observation.
func (h *Histogram) Add(d units.Duration) {
	h.total++
	idx := bucketFor(d)
	if idx < 0 {
		h.under++
		return
	}
	h.counts[idx]++
}

// N returns the number of observations.
func (h *Histogram) N() int64 { return h.total }

// Quantile returns an approximation of the q-quantile (q in [0,1]).
func (h *Histogram) Quantile(q float64) units.Duration {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(h.total-1))
	if rank < h.under {
		return 0
	}
	seen := h.under
	for i, c := range h.counts {
		seen += c
		if seen > rank {
			return bucketFloor(i)
		}
	}
	return bucketFloor(bucketCount - 1)
}

// P50, P95, P99 are the quantiles service dashboards live on.
func (h *Histogram) P50() units.Duration { return h.Quantile(0.50) }
func (h *Histogram) P95() units.Duration { return h.Quantile(0.95) }
func (h *Histogram) P99() units.Duration { return h.Quantile(0.99) }

// QuantileSummary is a point-in-time extraction of the dashboard quantiles —
// a plain value that can be copied out from under a lock and serialized
// (Prometheus exposition, JSON stats) without holding the histogram.
type QuantileSummary struct {
	N             int64
	P50, P95, P99 units.Duration
}

// Summarize extracts the p50/p95/p99 quantiles in one pass-friendly call.
func (h *Histogram) Summarize() QuantileSummary {
	return QuantileSummary{N: h.total, P50: h.P50(), P95: h.P95(), P99: h.P99()}
}

// HistogramDump is a Histogram's serializable form: only the non-empty
// buckets are listed, so dumps stay small and deep-equal for equal
// histograms regardless of how they were built.
type HistogramDump struct {
	Buckets []BucketCount
	Total   int64
	Under   int64
}

// BucketCount is one non-empty histogram bucket.
type BucketCount struct {
	Index int
	Count int64
}

// Dump extracts the histogram's state for serialization.
func (h *Histogram) Dump() HistogramDump {
	d := HistogramDump{Total: h.total, Under: h.under}
	for i, c := range h.counts {
		if c > 0 {
			d.Buckets = append(d.Buckets, BucketCount{Index: i, Count: c})
		}
	}
	return d
}

// Restore overwrites the histogram with a dumped state. Bucket indexes
// outside the compiled range are folded into the last bucket rather than
// dropped, so totals stay consistent across layout changes.
func (h *Histogram) Restore(d HistogramDump) {
	*h = Histogram{total: d.Total, under: d.Under}
	for _, b := range d.Buckets {
		idx := b.Index
		if idx < 0 {
			idx = 0
		}
		if idx >= bucketCount {
			idx = bucketCount - 1
		}
		h.counts[idx] += b.Count
	}
}

// String renders a compact sparkline summary.
func (h *Histogram) String() string {
	if h.total == 0 {
		return "histogram{empty}"
	}
	return fmt.Sprintf("histogram{n=%d p50=%v p95=%v p99=%v}",
		h.total, h.P50().Std(), h.P95().Std(), h.P99().Std())
}

// Render draws an ASCII bar chart of the non-empty region, at most maxRows
// rows (merging adjacent buckets as needed) — for cmd/vizsim -v output.
func (h *Histogram) Render(maxRows int) string {
	if h.total == 0 {
		return "(no samples)\n"
	}
	lo, hi := -1, -1
	for i, c := range h.counts {
		if c > 0 {
			if lo < 0 {
				lo = i
			}
			hi = i
		}
	}
	if lo < 0 {
		return "(all samples below 1µs)\n"
	}
	if maxRows < 1 {
		maxRows = 16
	}
	span := hi - lo + 1
	per := (span + maxRows - 1) / maxRows
	var b strings.Builder
	var peak int64
	rows := make([]int64, 0, maxRows)
	bounds := make([]units.Duration, 0, maxRows)
	for i := lo; i <= hi; i += per {
		var sum int64
		for j := i; j < i+per && j <= hi; j++ {
			sum += h.counts[j]
		}
		rows = append(rows, sum)
		bounds = append(bounds, bucketFloor(i))
		if sum > peak {
			peak = sum
		}
	}
	for i, sum := range rows {
		width := int(float64(sum) / float64(peak) * 40)
		fmt.Fprintf(&b, "%12v %8d %s\n", bounds[i].Std(), sum, strings.Repeat("#", width))
	}
	return b.String()
}
