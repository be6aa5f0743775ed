package vizsched

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"vizsched/internal/core"
	"vizsched/internal/experiments"
	"vizsched/internal/service"
	"vizsched/internal/sim"
	"vizsched/internal/units"
	"vizsched/internal/volume"
	"vizsched/internal/workload"
)

// probeSpecs are the live benchmark's cluster shapes, copied from liveSpecs
// in bench/live.go (the rows of live_orbit_pipe, live_fanout_tcp,
// live_cold_sweep and live_mixed_batch): dimension, bricks, workers and
// frame width, and whether each worker has room for only one brick and a
// half. Only dataset d0 matters here: every probe frame is of it.
var probeSpecs = []struct {
	name                 string
	dim, chunks, workers int
	width                int
	cold                 bool
}{
	{name: "live_orbit_pipe", dim: 48, chunks: 3, workers: 3, width: 128},
	{name: "live_fanout_tcp", dim: 32, chunks: 8, workers: 4, width: 64},
	{name: "live_cold_sweep", dim: 128, chunks: 2, workers: 2, width: 64, cold: true},
	{name: "live_mixed_batch", dim: 48, chunks: 3, workers: 3, width: 128},
}

// hostFloatsReproduce reports whether this host's math.Exp and math.Pow
// return the bits they returned where the pins were recorded. On amd64,
// math.Exp takes an FMA path when the CPU has AVX and FMA, and the two
// paths differ in the last bit on the Exp inputs below; math.Pow reaches
// Exp for fractional exponents. The volume generators and the workload
// generator call them, so where they differ the voxels, the PNG bytes and
// the simulator's schedules may too, and a pin says nothing.
func hostFloatsReproduce() bool {
	exp := map[float64]uint64{
		-7.3: 0x3f4622d4792b6a8d, -12.125: 0x3ed6be184875fe35,
		17.6203635218005: 0x41856b3ba7b290b9, -11.108423319728491: 0x3eef6d50074b7801,
		7.306139520529751: 0x409745aa3469a00d, -5.212286254407124: 0x3f7651e6cd639fe7,
	}
	for x, bits := range exp {
		if math.Float64bits(math.Exp(x)) != bits {
			return false
		}
	}
	for _, c := range []struct {
		x, y float64
		bits uint64
	}{
		{2.5, 0.37, 0x3ff6751271a01214},
		{0.8, 1.7, 0x3fe5e5de6318dbc9},
		{13.25, -0.61, 0x3fca76d3deb28294},
		{0.3, 2.2, 0x3fb21c08eb3f512d},
	} {
		if math.Float64bits(math.Pow(c.x, c.y)) != c.bits {
			return false
		}
	}
	return true
}

// TestProbeFramesMatchBenchPins renders each live workload's probe frame
// (bench/live.go's probeRequest: dataset d0 at angle 0.6, elevation 0.3,
// distance 2.4) through service.StartCluster under OURS at ω = 2 ms and
// compares the PNG's sha256 with bench/golden.json. The pins hold on any
// host whose floats reproduce, not only on the CPU model bench keys them on.
func TestProbeFramesMatchBenchPins(t *testing.T) {
	if !hostFloatsReproduce() {
		t.Skip("this host's math.Exp/math.Pow do not reproduce the recorded bits; the probe pins cannot hold here")
	}
	raw, err := os.ReadFile("bench/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var gold struct {
		ProbePNG map[string]string `json:"probe_png_sha256"`
	}
	if err := json.Unmarshal(raw, &gold); err != nil {
		t.Fatal(err)
	}
	if len(gold.ProbePNG) != len(probeSpecs) {
		t.Errorf("bench/golden.json pins %d probe frames, the test renders %d", len(gold.ProbePNG), len(probeSpecs))
	}
	for _, spec := range probeSpecs {
		t.Run(spec.name, func(t *testing.T) {
			want, ok := gold.ProbePNG[spec.name]
			if !ok {
				t.Fatal("no pin")
			}
			if got := renderProbe(t, spec.dim, spec.chunks, spec.workers, spec.width, spec.cold); got != want {
				t.Errorf("probe frame sha256 %s, pinned %s", got, want)
			}
		})
	}
}

// simFacts are the simulated results bench/golden.json pins for
// sim_s3_ours, under the names bench/sim.go gives them.
type simFacts struct {
	FPS                  float64 `json:"fps"`
	HitRate              float64 `json:"hit_rate"`
	InteractiveCompleted int64   `json:"interactive_completed"`
	BatchCompleted       int64   `json:"batch_completed"`
	SchedInvocations     int64   `json:"sched_invocations"`
}

// TestSimS3OursMatchesBenchPins runs sim_s3_ours's pinned schedule, Scenario
// 3 at scale 0.02 under OURS with experiments.Jitter, and compares its facts
// with bench/golden.json. The workload's spec seed is 8: bench draws its
// panel of schedules from seed*simPanel + k (bench/sim.go, runSimScenario)
// and pins the first, k = 0, at seed 1, with simPanel = 8.
func TestSimS3OursMatchesBenchPins(t *testing.T) {
	if !hostFloatsReproduce() {
		t.Skip("this host's math.Exp/math.Pow do not reproduce the recorded bits; the sim_s3_ours pins cannot hold here")
	}
	raw, err := os.ReadFile("bench/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var gold struct {
		Sim simFacts `json:"sim_s3_ours"`
	}
	if err := json.Unmarshal(raw, &gold); err != nil {
		t.Fatal(err)
	}
	cfg := workload.Scenario(workload.Scenario3, 0.02)
	spec := cfg.Spec
	spec.Seed = 1*8 + 0
	rep := sim.New(sim.ScenarioEngineConfig(cfg, core.NewLocalityScheduler(0), experiments.Jitter)).Run(workload.Generate(spec), 0)
	got := simFacts{
		FPS: rep.MeanFramerate(), HitRate: rep.HitRate(),
		InteractiveCompleted: rep.Interactive.Completed, BatchCompleted: rep.Batch.Completed,
		SchedInvocations: rep.SchedInvocations,
	}
	if got != gold.Sim {
		t.Errorf("sim_s3_ours facts %+v, pinned %+v", got, gold.Sim)
	}
}

// renderProbe writes d0 (the supernova field, dim³ in chunks bricks), starts
// a cluster of workers and returns the sha256 of the probe frame's PNG.
func renderProbe(t *testing.T, dim, chunks, workers, width int, cold bool) string {
	t.Helper()
	g := volume.Generate(volume.Supernova, dim, dim, dim)
	m, err := service.WriteDataset(filepath.Join(t.TempDir(), "d0"), "d0", g, chunks, "supernova")
	if err != nil {
		t.Fatal(err)
	}
	cat := service.NewCatalog()
	if err := cat.Add(m); err != nil {
		t.Fatal(err)
	}
	quota := 128 * units.MB
	if cold {
		quota = m.Chunks[0].SizeBytes * 3 / 2
	}
	cl, err := service.StartCluster(core.NewLocalityScheduler(2*units.Millisecond), cat, workers, quota)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	c := cl.Connect()
	defer c.Close()
	res, err := c.Render(service.RenderBody{
		Dataset: "d0", Angle: 0.6, Elevation: 0.3, Dist: 2.4,
		Width: width, Height: width, Action: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if b := res.Image.Bounds(); b.Dx() != width || b.Dy() != width {
		t.Fatalf("probe frame is %dx%d, want %dx%d", b.Dx(), b.Dy(), width, width)
	}
	sum := sha256.Sum256(res.PNG)
	return hex.EncodeToString(sum[:])
}
