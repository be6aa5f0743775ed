package core

import (
	"testing"
	"testing/quick"

	"vizsched/internal/units"
)

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 16: 4, 64: 6, 100: 7}
	for n, want := range cases {
		if got := ceilLog2(n); got != want {
			t.Errorf("ceilLog2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestDefaultCostModelOrdersOfMagnitude(t *testing.T) {
	m := DefaultCostModel()
	const chunk = 512 * units.MB
	io := m.IOTime(chunk)
	hit := m.HitExec(chunk, 4)
	miss := m.MissExec(chunk, 4)
	// Fig. 2: I/O is seconds, rendering+compositing is milliseconds. The
	// default (System 2) parallel file system loads a chunk in ≈1.2 s; the
	// System 1 local disks take ≈5.3 s.
	if io < 500*units.Millisecond || io > 10*units.Second {
		t.Errorf("IOTime(512MB) = %v, want ~1-5s", io)
	}
	if io1 := System1CostModel().IOTime(chunk); io1 < 4*units.Second || io1 > 10*units.Second {
		t.Errorf("System1 IOTime(512MB) = %v, want ~5s", io1)
	}
	if hit < 2*units.Millisecond || hit > 30*units.Millisecond {
		t.Errorf("HitExec(512MB) = %v, want ~10ms", hit)
	}
	// The dominance ratio the whole paper rests on: tio ≫ α.
	if ratio := float64(io) / float64(hit); ratio < 100 {
		t.Errorf("io/hit ratio = %v, want ≥100 (I/O must dominate)", ratio)
	}
	if miss != io+hit {
		t.Errorf("MissExec = %v, want io+hit = %v", miss, io+hit)
	}
}

func TestCompositeTimeGrowsWithGroup(t *testing.T) {
	m := DefaultCostModel()
	if m.CompositeTime(1) != 0 {
		t.Error("single-node group should composite for free")
	}
	if m.CompositeTime(4) >= m.CompositeTime(64) {
		t.Error("composite time must grow with group size")
	}
	// log2 growth: 64 nodes = 6 rounds.
	if m.CompositeTime(64) != 6*m.CompositeRound {
		t.Errorf("CompositeTime(64) = %v", m.CompositeTime(64))
	}
}

// Property: costs are monotone in chunk size.
func TestQuickCostMonotoneInSize(t *testing.T) {
	m := DefaultCostModel()
	f := func(a, b uint32) bool {
		x, y := units.Bytes(a), units.Bytes(b)
		if x > y {
			x, y = y, x
		}
		return m.IOTime(x) <= m.IOTime(y) &&
			m.RenderTime(x) <= m.RenderTime(y) &&
			m.MissExec(x, 4) <= m.MissExec(y, 4)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
