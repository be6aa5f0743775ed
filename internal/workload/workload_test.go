package workload

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"vizsched/internal/core"
	"vizsched/internal/units"
	"vizsched/internal/volume"
)

func TestActionRequests(t *testing.T) {
	a := Action{
		ID: 1, Dataset: 2,
		Start:  units.Time(units.Second),
		End:    units.Time(units.Second + 100*units.Millisecond),
		Period: 30 * units.Millisecond,
	}
	reqs := a.Requests()
	// Frames at 1.000, 1.030, 1.060, 1.090.
	if len(reqs) != 4 {
		t.Fatalf("got %d requests, want 4", len(reqs))
	}
	for i, r := range reqs {
		if r.Class != core.Interactive || r.Action != 1 || r.Dataset != 2 {
			t.Errorf("request %d metadata wrong: %+v", i, r)
		}
	}
	if reqs[3].At != units.Time(units.Second+90*units.Millisecond) {
		t.Errorf("last request at %v", reqs[3].At)
	}
}

func TestBatchSubmissionRequests(t *testing.T) {
	b := BatchSubmission{ID: 5, Dataset: 3, At: units.Time(2 * units.Second), Frames: 7}
	reqs := b.appendRequests(nil)
	if len(reqs) != 7 {
		t.Fatalf("got %d, want 7", len(reqs))
	}
	for _, r := range reqs {
		if r.Class != core.Batch || r.At != b.At || r.Dataset != 3 {
			t.Errorf("bad batch request %+v", r)
		}
	}
}

func TestGenerateContinuousActions(t *testing.T) {
	s := Generate(Spec{
		Length: units.Time(3 * units.Second), Datasets: 6,
		ContinuousActions: 6, Period: 30 * units.Millisecond, Seed: 1,
	})
	if len(s.Actions) != 6 {
		t.Fatalf("actions = %d", len(s.Actions))
	}
	// 6 actions × 101 frames (endpoints inclusive: 0 through 3 s at 30 ms).
	if got := s.InteractiveCount(); got != 606 {
		t.Errorf("interactive = %d, want 606", got)
	}
	if s.BatchCount() != 0 {
		t.Errorf("batch = %d, want 0", s.BatchCount())
	}
	// Each of the 6 datasets used exactly once.
	used := map[volume.DatasetID]int{}
	for _, a := range s.Actions {
		used[a.Dataset]++
	}
	if len(used) != 6 {
		t.Errorf("datasets used = %d, want 6", len(used))
	}
}

func TestGenerateHitsTargets(t *testing.T) {
	s := Generate(Spec{
		Length: units.Time(30 * units.Second), Datasets: 12,
		TargetInteractive: 2000, TargetBatch: 300,
		ShortActionMin: units.Second, ShortActionMax: 3 * units.Second,
		BatchFramesMin: 10, BatchFramesMax: 40,
		Seed: 7,
	})
	if got := s.InteractiveCount(); got != 2000 {
		t.Errorf("interactive = %d, want exactly 2000", got)
	}
	if got := s.BatchCount(); got != 300 {
		t.Errorf("batch = %d, want exactly 300", got)
	}
}

func TestGenerateSortedAndDeterministic(t *testing.T) {
	spec := Spec{
		Length: units.Time(20 * units.Second), Datasets: 4,
		TargetInteractive: 500, TargetBatch: 100, Seed: 42,
	}
	a, b := Generate(spec), Generate(spec)
	if len(a.Requests) != len(b.Requests) {
		t.Fatal("not deterministic in count")
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatalf("request %d differs between runs", i)
		}
	}
	if !sort.SliceIsSorted(a.Requests, func(i, j int) bool { return a.Requests[i].At < a.Requests[j].At }) {
		t.Error("requests not sorted by arrival")
	}
}

func TestGenerateRequestsWithinLength(t *testing.T) {
	s := Generate(Spec{
		Length: units.Time(10 * units.Second), Datasets: 3,
		TargetInteractive: 1000, TargetBatch: 50, Seed: 3,
	})
	for _, r := range s.Requests {
		if r.At < 0 {
			t.Fatalf("request before epoch: %v", r.At)
		}
	}
	// Batch arrivals stay within the run length (actions may run past it by
	// at most one action duration — the engine simply stops issuing).
	for _, b := range s.Submissions {
		if b.At >= s.Length {
			t.Errorf("batch at %v beyond length %v", b.At, s.Length)
		}
	}
}

func TestGeneratePanicsWithoutDatasets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Generate(Spec{Length: units.Time(units.Second)})
}

// Property: generated interactive totals match the target exactly for any
// seed and reasonable target.
func TestQuickGenerateExactTargets(t *testing.T) {
	f := func(seed int64, rawTarget uint16) bool {
		target := int(rawTarget%5000) + 1
		s := Generate(Spec{
			Length: units.Time(30 * units.Second), Datasets: 5,
			TargetInteractive: target, Seed: seed,
		})
		return s.InteractiveCount() == target
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestScenarioConfigsMatchTableII(t *testing.T) {
	cases := []struct {
		id          ScenarioID
		nodes       int
		totalMem    units.Bytes
		datasets    int
		totalData   units.Bytes
		interactive int
		batch       int
	}{
		{Scenario1, 8, 16 * units.GB, 6, 12 * units.GB, 12006, 0},
		{Scenario2, 8, 16 * units.GB, 12, 24 * units.GB, 21011, 2251},
		{Scenario3, 64, 512 * units.GB, 32, 256 * units.GB, 160633, 9844},
		{Scenario4, 64, 512 * units.GB, 128, 1 * units.TB, 388481, 35176},
	}
	for _, c := range cases {
		cfg := Scenario(c.id, 1)
		if cfg.Nodes != c.nodes {
			t.Errorf("scenario %d nodes = %d, want %d", c.id, cfg.Nodes, c.nodes)
		}
		if cfg.TotalMemory() != c.totalMem {
			t.Errorf("scenario %d memory = %v, want %v", c.id, cfg.TotalMemory(), c.totalMem)
		}
		if cfg.DatasetCount != c.datasets {
			t.Errorf("scenario %d datasets = %d, want %d", c.id, cfg.DatasetCount, c.datasets)
		}
		if cfg.TotalData() != c.totalData {
			t.Errorf("scenario %d data = %v, want %v", c.id, cfg.TotalData(), c.totalData)
		}
		s := Generate(cfg.Spec)
		gotI, gotB := s.InteractiveCount(), s.BatchCount()
		// Scenario 1's six continuous actions produce 6×2001 = 12006 at
		// exactly 60 s / 30 ms; targets elsewhere are exact by construction.
		if gotI != c.interactive {
			t.Errorf("scenario %d interactive = %d, want %d", c.id, gotI, c.interactive)
		}
		if gotB != c.batch {
			t.Errorf("scenario %d batch = %d, want %d", c.id, gotB, c.batch)
		}
	}
}

func TestScenarioScaling(t *testing.T) {
	full := Scenario(Scenario2, 1)
	small := Scenario(Scenario2, 0.01)
	if small.Nodes != full.Nodes || small.DatasetCount != full.DatasetCount {
		t.Error("scaling must not change cluster or data shape")
	}
	if small.Spec.TargetInteractive >= full.Spec.TargetInteractive/50 {
		t.Errorf("scaled target = %d", small.Spec.TargetInteractive)
	}
	if small.Spec.Length >= full.Spec.Length {
		t.Error("scaled length not reduced")
	}
}

func TestScenarioUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Scenario(99, 1)
}

func TestScenarioLibrary(t *testing.T) {
	cfg := Scenario(Scenario1, 1)
	lib := cfg.Library(volume.MaxChunk{Chkmax: cfg.Chkmax})
	if lib.Len() != 6 {
		t.Fatalf("library size = %d", lib.Len())
	}
	for _, d := range lib.All() {
		if len(d.Chunks) != 4 {
			t.Errorf("dataset %s chunks = %d, want 4", d.Name, len(d.Chunks))
		}
	}
}

func TestTimeSeriesBatchWalksDatasets(t *testing.T) {
	b := BatchSubmission{ID: 1, Dataset: 3, At: 0, Frames: 5, TimeSeries: true, Datasets: 4}
	reqs := b.appendRequests(nil)
	want := []volume.DatasetID{3, 4, 1, 2, 3}
	for i, r := range reqs {
		if r.Dataset != want[i] {
			t.Fatalf("frame %d dataset = %d, want %d", i, r.Dataset, want[i])
		}
	}
}

func TestGenerateBatchTimeSeries(t *testing.T) {
	s := Generate(Spec{
		Length: units.Time(10 * units.Second), Datasets: 6,
		TargetBatch: 60, BatchFramesMin: 20, BatchFramesMax: 20,
		BatchTimeSeries: true, Seed: 5,
	})
	// Each 20-frame submission must touch many datasets, not one.
	perAction := map[core.ActionID]map[volume.DatasetID]bool{}
	for _, r := range s.Requests {
		if r.Class != core.Batch {
			continue
		}
		if perAction[r.Action] == nil {
			perAction[r.Action] = map[volume.DatasetID]bool{}
		}
		perAction[r.Action][r.Dataset] = true
	}
	for a, ds := range perAction {
		if len(ds) < 5 {
			t.Errorf("submission %d touched %d datasets, want ≥5", a, len(ds))
		}
	}
}

// stableSorted is the request layout Generate had before it merged its
// sources: every action's requests, then every submission's, stably sorted
// by At.
func stableSorted(actions []Action, subs []BatchSubmission) []Request {
	var reqs []Request
	for _, a := range actions {
		reqs = append(reqs, a.Requests()...)
	}
	for _, b := range subs {
		reqs = append(reqs, b.appendRequests(nil)...)
	}
	slices.SortStableFunc(reqs, func(a, b Request) int { return cmp.Compare(a.At, b.At) })
	return reqs
}

// TestGenerateMatchesStableSort holds Generate's merged request order to the
// stable sort it replaced, over random specs and over hand-made sources
// whose requests tie on At across actions, submissions and classes.
func TestGenerateMatchesStableSort(t *testing.T) {
	check := func(name string, got []Request, actions []Action, subs []BatchSubmission) {
		t.Helper()
		if want := stableSorted(actions, subs); !slices.Equal(got, want) {
			t.Fatalf("%s: %d requests differ from the stable sort's %d", name, len(got), len(want))
		}
		if cap(got) != len(got) {
			t.Errorf("%s: %d requests in a slice of capacity %d", name, len(got), cap(got))
		}
	}
	rng := rand.New(rand.NewSource(43))
	periods := []units.Duration{30 * units.Millisecond, 7 * units.Millisecond, units.Second}
	for i := 0; i < 300; i++ {
		spec := Spec{
			Length:            units.Time(units.Second) * units.Time(2+rng.Intn(8)),
			Datasets:          1 + rng.Intn(12),
			Period:            periods[rng.Intn(len(periods))],
			ContinuousActions: rng.Intn(4),
			TargetInteractive: rng.Intn(600),
			TargetBatch:       rng.Intn(300),
			BatchFramesMin:    1 + rng.Intn(5),
			BatchFramesMax:    rng.Intn(40),
			BatchUniform:      rng.Intn(2) == 0,
			BatchTimeSeries:   rng.Intn(2) == 0,
			HotDatasets:       rng.Intn(3),
			Tenants:           rng.Intn(5),
			TenantSkew:        rng.Float64(),
			Seed:              rng.Int63(),
		}
		if rng.Intn(3) == 0 {
			// Actions shorter than a period issue a single frame.
			spec.ShortActionMin, spec.ShortActionMax = units.Millisecond, 2*units.Millisecond
		}
		s := Generate(spec)
		check(fmt.Sprintf("spec %d", i), s.Requests, s.Actions, s.Submissions)
	}

	// Requests at equal At from several actions and submissions of both
	// classes, single-frame actions, an empty action and an empty
	// submission.
	sec := units.Time(units.Second)
	actions := []Action{
		{ID: 1, Dataset: 1, Start: 0, End: 2 * sec, Period: units.Second},
		{ID: 2, Dataset: 2, Start: sec, End: sec, Period: 30 * units.Millisecond},
		{ID: 3, Dataset: 3, Tenant: 2, Start: 0, End: 3 * sec, Period: units.Duration(sec / 2)},
		{ID: 4, Dataset: 1, Start: 2 * sec, End: sec, Period: units.Second},
		{ID: 5, Dataset: 2, Start: 2 * sec, End: 2 * sec, Period: units.Second},
	}
	subs := []BatchSubmission{
		{ID: 6, Dataset: 1, At: sec, Frames: 3},
		{ID: 7, Dataset: 2, At: 0, Frames: 2, TimeSeries: true, Datasets: 3},
		{ID: 8, Dataset: 3, At: sec, Frames: 0},
		{ID: 9, Dataset: 3, Tenant: 1, At: 2 * sec, Frames: 4, TimeSeries: true, Datasets: 3},
		{ID: 10, Dataset: 1, At: sec, Frames: 1},
	}
	check("ties", arrivals(actions, subs), actions, subs)
	check("no sources", arrivals(nil, nil), nil, nil)
}
