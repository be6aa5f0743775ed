package core

import (
	"math/bits"

	"vizsched/internal/units"
)

// CostModel quantifies the parallel volume rendering pipeline of §IV:
//
//	TExec(i,j,k) = tio + trender + tcomposite
//
// with tio dominating (tens of seconds for multi-GB data) and the rest a
// few milliseconds (Fig. 2), so TExec ≅ tio + α for misses. The constants
// below are calibrated to 2012-era hardware — spinning disks around
// 100 MB/s, PCIe 2.0 uploads, GPU ray casting at interactive rates — which
// is what reproduces the paper's framerate/latency shapes.
type CostModel struct {
	// DiskRate moves chunk bytes from the file system into main memory.
	DiskRate units.Rate
	// PCIeRate moves chunk bytes from main memory into GPU memory.
	PCIeRate units.Rate
	// RenderBase is the fixed per-task render cost (kernel launch, full
	// viewport traversal) independent of chunk size.
	RenderBase units.Duration
	// RenderRate converts chunk bytes to ray-casting time.
	RenderRate units.Rate
	// TaskOverhead is β: per-task dispatch, parameter transmission, and
	// subimage return over the interconnect.
	TaskOverhead units.Duration
	// CompositeRound is the cost of one swap round of parallel image
	// compositing; a render group of g nodes pays ⌈log₂ g⌉ rounds.
	CompositeRound units.Duration
}

// DefaultCostModel is System2CostModel: the larger of the paper's two
// testbeds, and the sane default for new deployments.
func DefaultCostModel() CostModel { return System2CostModel() }

// System1CostModel is calibrated to the paper's first system (§VI-A): an
// 8-node Linux cluster, one GTX 285 per node, quad-core hosts, gigabit-era
// interconnect. Per-task overheads are high relative to the second system —
// which is what makes FCFSU's uniform all-nodes partitioning cost roughly
// twice the resources per job in Scenario 1 (Fig. 4).
func System1CostModel() CostModel {
	return CostModel{
		DiskRate:       100 * units.MBps,
		PCIeRate:       4 * units.GBps,
		RenderBase:     1 * units.Millisecond,
		RenderRate:     256 * units.GBps,
		TaskOverhead:   5 * units.Millisecond,
		CompositeRound: 500 * units.Microsecond,
	}
}

// System2CostModel is calibrated to the paper's second system: the 100-node
// GPU cluster at Argonne (two FX5600s and 32 GB per node, InfiniBand-class
// interconnect and a GPFS-class parallel file system), whose lower per-task
// and I/O overheads let 64-node render groups sustain the 33.33 fps target
// in Scenario 3 (Fig. 6). A 512 MB chunk miss costs ≈1.2 s here versus
// ≈5.3 s on System 1; hits are ≈5–9 ms on both — Fig. 2's orders of
// magnitude either way.
func System2CostModel() CostModel {
	return CostModel{
		DiskRate:       500 * units.MBps,
		PCIeRate:       4 * units.GBps,
		RenderBase:     1 * units.Millisecond,
		RenderRate:     256 * units.GBps,
		TaskOverhead:   1500 * units.Microsecond,
		CompositeRound: 250 * units.Microsecond,
	}
}

// IOTime is tio: disk read plus GPU upload for a chunk of the given size.
func (m CostModel) IOTime(size units.Bytes) units.Duration {
	return m.DiskRate.TimeFor(size) + m.PCIeRate.TimeFor(size)
}

// RenderTime is trender for a chunk of the given size.
func (m CostModel) RenderTime(size units.Bytes) units.Duration {
	return m.RenderBase + m.RenderRate.TimeFor(size)
}

// CompositeTime is tcomposite for a render group of g nodes: ⌈log₂ g⌉
// exchange rounds. A single-node group composites nothing.
func (m CostModel) CompositeTime(group int) units.Duration {
	if group <= 1 {
		return 0
	}
	return m.CompositeRound * units.Duration(ceilLog2(group))
}

// HitExec is α: task execution when the chunk is already resident in the
// node's main memory.
func (m CostModel) HitExec(size units.Bytes, group int) units.Duration {
	return m.TaskOverhead + m.RenderTime(size) + m.CompositeTime(group)
}

// MissExec is a task execution that must first fetch its chunk: tio + α.
func (m CostModel) MissExec(size units.Bytes, group int) units.Duration {
	return m.IOTime(size) + m.HitExec(size, group)
}

// ceilLog2 returns ⌈log₂ n⌉ for n ≥ 1.
func ceilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}
