package sim

import (
	"testing"

	"vizsched/internal/units"
)

func TestCompFrameDeterministic(t *testing.T) {
	cfg := CompFrameConfig{Nodes: 27, Algorithm: "2-3-swap", Jitter: 0.05, Straggler: -1, Seed: 9}
	a := RunCompFrame(cfg)
	b := RunCompFrame(cfg)
	if a != b {
		t.Fatalf("same config diverged: %+v vs %+v", a, b)
	}
}

// TestCompFrameDFBBeatsSwaps is the acceptance claim in model form: the
// asynchronous tile push charges two hops where the collectives charge a
// round count that grows with the cluster, so dfb's mean frame latency is
// strictly below 2-3 swap from 27 nodes up.
func TestCompFrameDFBBeatsSwaps(t *testing.T) {
	for _, n := range []int{27, 48, 64, 100} {
		base := CompFrameConfig{Nodes: n, Jitter: 0.05, Straggler: -1, Seed: int64(n)}
		base.Algorithm = "dfb"
		d := RunCompFrame(base)
		base.Algorithm = "2-3-swap"
		tt := RunCompFrame(base)
		base.Algorithm = "binary-swap"
		bs := RunCompFrame(base)
		if d.MeanLatency >= tt.MeanLatency {
			t.Errorf("n=%d: dfb mean %v not strictly below 2-3 swap %v", n, d.MeanLatency, tt.MeanLatency)
		}
		if d.MeanLatency >= bs.MeanLatency {
			t.Errorf("n=%d: dfb mean %v not strictly below binary swap %v", n, d.MeanLatency, bs.MeanLatency)
		}
	}
}

// TestCompFrameStragglerHurtsBarriersMore: one 3.5×-slow node stretches
// every barriered round and overruns the frame budget, so the collectives'
// degradation must dwarf dfb's.
func TestCompFrameStragglerHurtsBarriersMore(t *testing.T) {
	for _, n := range []int{8, 27, 100} {
		deg := func(alg string) float64 {
			base := CompFrameConfig{Nodes: n, Algorithm: alg, Jitter: 0.05, Straggler: -1, Seed: 3}
			healthy := RunCompFrame(base)
			base.Straggler = n / 2
			base.StragglerFactor = 3.5
			slow := RunCompFrame(base)
			return float64(slow.MeanLatency) / float64(healthy.MeanLatency)
		}
		dfbDeg, ttDeg := deg("dfb"), deg("2-3-swap")
		if dfbDeg*2 > ttDeg {
			t.Errorf("n=%d: dfb degradation %.2fx not materially below 2-3 swap %.2fx", n, dfbDeg, ttDeg)
		}
	}
}

func TestCompFrameWindowGates(t *testing.T) {
	// A slow cluster (render > period) with window 1 must serialize frames:
	// latency grows with the backlog but makespan equals frames×render-ish.
	cfg := CompFrameConfig{
		Nodes: 4, Frames: 10, Algorithm: "dfb",
		RenderMean: 50 * units.Millisecond, Period: 30 * units.Millisecond,
		Window: 1, Straggler: -1, Seed: 1,
	}
	r := RunCompFrame(cfg)
	if r.Makespan < 10*50*units.Millisecond {
		t.Errorf("window=1 makespan %v too small for serialized frames", r.Makespan)
	}
	cfg.Window = 4
	r4 := RunCompFrame(cfg)
	if r4.Makespan > r.Makespan {
		t.Errorf("wider window slowed the pipeline: %v > %v", r4.Makespan, r.Makespan)
	}
}

func TestCompFrameUnknownAlgorithmPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown algorithm accepted")
		}
	}()
	RunCompFrame(CompFrameConfig{Nodes: 2, Algorithm: "nope"})
}
