// Package workload generates the multi-user request streams of the paper's
// four experiment scenarios (Table II): continuous and short interactive
// user actions issuing one rendering request per frame period, and batch
// submissions that drop bursts of animation-frame jobs into the queue.
// Everything is driven by an explicit seed, so a scenario regenerates
// identically run after run.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"vizsched/internal/core"
	"vizsched/internal/units"
	"vizsched/internal/volume"
)

// Request is one rendering job arrival, before decomposition into tasks.
type Request struct {
	At      units.Time
	Class   core.Class
	Action  core.ActionID
	Tenant  core.TenantID
	Dataset volume.DatasetID
}

// Action is one continuous interactive session: from Start to End the user
// issues one request every Period.
type Action struct {
	ID      core.ActionID
	Dataset volume.DatasetID
	Tenant  core.TenantID
	Start   units.Time
	End     units.Time
	Period  units.Duration
}

// Requests expands the action into its per-frame requests, issued every
// Period from Start through End inclusive (a 60 s action at 30 ms issues
// 2001 requests, which is how Table II's 12006 = 6×2001 comes about).
func (a Action) Requests() []Request {
	out := make([]Request, 0, a.frames())
	for t := a.Start; !t.After(a.End); t = t.Add(a.Period) {
		out = append(out, a.request(t))
	}
	return out
}

// frames returns the number of requests the action issues.
func (a Action) frames() int {
	if a.End.Before(a.Start) {
		return 0
	}
	return int(a.End.Sub(a.Start)/a.Period) + 1
}

// request is the action's frame request issued at t.
func (a Action) request(t units.Time) Request {
	return Request{At: t, Class: core.Interactive, Action: a.ID, Tenant: a.Tenant, Dataset: a.Dataset}
}

// BatchSubmission is one batch request: Frames animation-frame jobs, all
// entering the queue at At. An animation renders one dataset from many
// angles; a time-varying sweep (the paper's "visualizing time-varying
// data") renders consecutive datasets — one per timestep — which touches
// Frames times the data.
type BatchSubmission struct {
	ID      core.ActionID
	Dataset volume.DatasetID
	Tenant  core.TenantID
	At      units.Time
	Frames  int
	// TimeSeries makes frame i use dataset Dataset+i (wrapping at
	// Datasets), modeling timestep files of one simulation.
	TimeSeries bool
	// Datasets is the wrap bound for TimeSeries (the library size).
	Datasets int
}

// appendRequests expands the submission into its frame jobs, appended to
// out.
func (b BatchSubmission) appendRequests(out []Request) []Request {
	for i := 0; i < b.Frames; i++ {
		ds := b.Dataset
		if b.TimeSeries && b.Datasets > 0 {
			ds = volume.DatasetID((int(b.Dataset)-1+i)%b.Datasets + 1)
		}
		out = append(out, Request{At: b.At, Class: core.Batch, Action: b.ID, Tenant: b.Tenant, Dataset: ds})
	}
	return out
}

// Schedule is a complete generated workload: the request stream sorted by
// arrival time plus the descriptors it came from.
type Schedule struct {
	Requests    []Request
	Actions     []Action
	Submissions []BatchSubmission
	Length      units.Time
}

// InteractiveCount returns the number of interactive requests.
func (s *Schedule) InteractiveCount() int {
	n := 0
	for _, r := range s.Requests {
		if r.Class == core.Interactive {
			n++
		}
	}
	return n
}

// BatchCount returns the number of batch requests.
func (s *Schedule) BatchCount() int { return len(s.Requests) - s.InteractiveCount() }

// Spec describes a scenario's workload shape.
type Spec struct {
	// Length is the simulated duration.
	Length units.Time
	// Datasets is the number of datasets users pick from.
	Datasets int
	// Period is the interactive frame period (30 ms for the paper's
	// 33.33 fps target).
	Period units.Duration
	// ContinuousActions, when positive, creates exactly this many actions
	// spanning the full length (Scenario 1's six steady users), one per
	// dataset round-robin.
	ContinuousActions int
	// TargetInteractive, when positive, creates randomized short actions
	// until approximately this many interactive requests exist.
	TargetInteractive int
	// ShortActionMin/Max bound the random short-action durations.
	ShortActionMin, ShortActionMax units.Duration
	// DatasetZipf skews dataset popularity: dataset r is picked with weight
	// 1/r^s. Zero or negative selects uniform. Multi-user archives have hot
	// datasets; without skew every action switch forces a full reload and
	// the disk dominates every policy equally.
	DatasetZipf float64
	// HotDatasets/HotFraction define a two-tier popularity instead: with
	// probability HotFraction a pick is uniform over datasets 1..HotDatasets,
	// otherwise uniform over the remainder. This is the regime of the
	// paper's Scenario 2: a hot working set that exceeds any single node's
	// memory quota but fits cluster-wide — exactly where locality-aware
	// placement pays and blind placement thrashes. Takes precedence over
	// DatasetZipf when HotDatasets > 0.
	HotDatasets int
	HotFraction float64
	// TargetBatch, when positive, creates batch submissions totalling
	// approximately this many frame jobs.
	TargetBatch int
	// BatchFramesMin/Max bound the frames per batch submission.
	BatchFramesMin, BatchFramesMax int
	// BatchUniform makes batch submissions pick datasets uniformly instead
	// of following the interactive popularity shape. Batch renders (archive
	// animations, time-series sweeps) target cold data as often as hot —
	// which is precisely what forces the data swapping the paper's
	// Scenario 2 studies.
	BatchUniform bool
	// BatchTimeSeries makes every batch submission sweep consecutive
	// datasets (timesteps) instead of orbiting one — the paper's
	// time-varying-data use case and the worst case for locality.
	BatchTimeSeries bool
	// Tenants, when > 1, assigns each action and batch submission to a
	// tenant 1..Tenants; TenantSkew makes tenant r's share proportional to
	// 1/r^s (zero = uniform), so tenant 1 is the greedy customer the QoS
	// layer exists to contain. Tenant draws come from a separate rng, so
	// single-tenant schedules are bit-identical with or without the fields.
	Tenants    int
	TenantSkew float64
	// Seed drives all randomness.
	Seed int64
}

// Generate expands a spec into a concrete schedule.
func Generate(spec Spec) *Schedule {
	if spec.Period <= 0 {
		spec.Period = 30 * units.Millisecond
	}
	if spec.Datasets <= 0 {
		panic("workload: spec needs datasets")
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	pick := datasetPicker(spec)
	batchPick := pick
	if spec.BatchUniform {
		uniform := spec
		uniform.HotDatasets = 0
		uniform.DatasetZipf = 0
		batchPick = datasetPicker(uniform)
	}
	s := &Schedule{Length: spec.Length}
	nextAction := core.ActionID(1)

	for i := 0; i < spec.ContinuousActions; i++ {
		a := Action{
			ID:      nextAction,
			Dataset: volume.DatasetID(i%spec.Datasets + 1),
			Start:   0,
			End:     spec.Length,
			Period:  spec.Period,
		}
		nextAction++
		s.Actions = append(s.Actions, a)
	}

	if spec.TargetInteractive > 0 {
		minD, maxD := spec.ShortActionMin, spec.ShortActionMax
		if minD <= 0 {
			minD = 2 * units.Second
		}
		if maxD < minD {
			maxD = minD * 4
		}
		generated := 0
		for generated < spec.TargetInteractive {
			dur := minD + units.Duration(rng.Int63n(int64(maxD-minD)+1))
			frames := int(dur / spec.Period)
			if frames < 1 {
				frames = 1
			}
			if over := generated + frames - spec.TargetInteractive; over > 0 {
				frames -= over
				dur = units.Duration(frames) * spec.Period
			}
			latest := int64(spec.Length) - int64(dur)
			if latest < 0 {
				latest = 0
			}
			start := units.Time(rng.Int63n(latest + 1))
			a := Action{
				ID:      nextAction,
				Dataset: pick(rng),
				Start:   start,
				End:     start.Add(units.Duration(frames-1) * spec.Period),
				Period:  spec.Period,
			}
			nextAction++
			s.Actions = append(s.Actions, a)
			generated += frames
		}
	}

	if spec.TargetBatch > 0 {
		minF, maxF := spec.BatchFramesMin, spec.BatchFramesMax
		if minF <= 0 {
			minF = 20
		}
		if maxF < minF {
			maxF = minF * 5
		}
		generated := 0
		for generated < spec.TargetBatch {
			frames := minF + rng.Intn(maxF-minF+1)
			if over := generated + frames - spec.TargetBatch; over > 0 {
				frames -= over
			}
			if frames < 1 {
				frames = 1
			}
			b := BatchSubmission{
				ID:         nextAction,
				Dataset:    batchPick(rng),
				At:         units.Time(rng.Int63n(int64(spec.Length))),
				Frames:     frames,
				TimeSeries: spec.BatchTimeSeries,
				Datasets:   spec.Datasets,
			}
			nextAction++
			s.Submissions = append(s.Submissions, b)
			generated += frames
		}
	}

	if spec.Tenants > 1 {
		// A dedicated rng keeps tenant assignment from disturbing the
		// dataset/timing draws above: Tenants=0/1 schedules stay
		// bit-identical to pre-tenant generation.
		trng := rand.New(rand.NewSource(spec.Seed + 7777))
		tpick := tenantPicker(spec.Tenants, spec.TenantSkew)
		for i := range s.Actions {
			s.Actions[i].Tenant = tpick(trng)
		}
		for i := range s.Submissions {
			s.Submissions[i].Tenant = tpick(trng)
		}
	}

	s.Requests = arrivals(s.Actions, s.Submissions)
	return s
}

// arrivals lays out the actions' and then the submissions' requests in one
// exactly sized slice, stably sorted by At. Each source issues its requests
// in At order, so a merge of the sources, an At tie going to the earlier
// source, is that order.
func arrivals(actions []Action, subs []BatchSubmission) []Request {
	n := 0
	h := make(sources, 0, len(actions)+len(subs))
	for i, a := range actions {
		if f := a.frames(); f > 0 {
			n += f
			h = append(h, source{a.Start, i})
		}
	}
	for i, b := range subs {
		if b.Frames > 0 {
			n += b.Frames
			h = append(h, source{b.At, len(actions) + i})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	out := make([]Request, 0, n)
	for len(h) > 0 {
		src := &h[0]
		if src.i < len(actions) {
			a := &actions[src.i]
			out = append(out, a.request(src.at))
			if src.at = src.at.Add(a.Period); !src.at.After(a.End) {
				h.down(0)
				continue
			}
		} else {
			out = subs[src.i-len(actions)].appendRequests(out)
		}
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		h.down(0)
	}
	return out
}

// source is one action or submission in arrivals' merge: the At of its next
// request, and its index in the concatenation of actions and submissions.
type source struct {
	at units.Time
	i  int
}

// sources is a binary min-heap of sources by (at, i).
type sources []source

func (h sources) less(a, b int) bool {
	return h[a].at < h[b].at || h[a].at == h[b].at && h[a].i < h[b].i
}

// down restores the heap below i.
func (h sources) down(i int) {
	for {
		m, l := i, 2*i+1
		if l < len(h) && h.less(l, m) {
			m = l
		}
		if r := l + 1; r < len(h) && h.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// TenantSampler returns a self-seeded sampler over tenant IDs 1..n for
// callers outside Generate (live load drivers): Zipf-weighted with exponent
// skew (tenant 1 hottest), uniform when skew <= 0. n <= 1 always yields the
// default tenant 0.
func TenantSampler(n int, skew float64, seed int64) func() core.TenantID {
	if n <= 1 {
		return func() core.TenantID { return 0 }
	}
	rng := rand.New(rand.NewSource(seed))
	pick := tenantPicker(n, skew)
	return func() core.TenantID { return pick(rng) }
}

// tenantPicker returns a sampler over tenant IDs 1..n: Zipf-weighted with
// exponent s (tenant 1 hottest), uniform when s <= 0.
func tenantPicker(n int, s float64) func(*rand.Rand) core.TenantID {
	if s <= 0 {
		return func(rng *rand.Rand) core.TenantID {
			return core.TenantID(rng.Intn(n) + 1)
		}
	}
	cdf := make([]float64, n)
	sum := 0.0
	for r := 1; r <= n; r++ {
		sum += 1 / math.Pow(float64(r), s)
		cdf[r-1] = sum
	}
	return func(rng *rand.Rand) core.TenantID {
		u := rng.Float64() * sum
		lo, hi := 0, n-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return core.TenantID(lo + 1)
	}
}

// datasetPicker returns a sampler over dataset IDs 1..n per the spec's
// popularity shape: two-tier when HotDatasets is set, else Zipf with
// exponent DatasetZipf, else uniform.
func datasetPicker(spec Spec) func(*rand.Rand) volume.DatasetID {
	n := spec.Datasets
	if hot := spec.HotDatasets; hot > 0 && hot < n {
		f := spec.HotFraction
		if f <= 0 || f > 1 {
			f = 0.95
		}
		return func(rng *rand.Rand) volume.DatasetID {
			if rng.Float64() < f {
				return volume.DatasetID(rng.Intn(hot) + 1)
			}
			return volume.DatasetID(hot + rng.Intn(n-hot) + 1)
		}
	}
	s := spec.DatasetZipf
	if s <= 0 {
		return func(rng *rand.Rand) volume.DatasetID {
			return volume.DatasetID(rng.Intn(n) + 1)
		}
	}
	cdf := make([]float64, n)
	sum := 0.0
	for r := 1; r <= n; r++ {
		sum += 1 / math.Pow(float64(r), s)
		cdf[r-1] = sum
	}
	return func(rng *rand.Rand) volume.DatasetID {
		u := rng.Float64() * sum
		lo, hi := 0, n-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return volume.DatasetID(lo + 1)
	}
}

// ScenarioID selects one of the paper's four experiments.
type ScenarioID int

// The paper's four scenarios (Table II).
const (
	Scenario1 ScenarioID = 1 + iota
	Scenario2
	Scenario3
	Scenario4
)

// ScenarioConfig bundles everything Table II specifies for one scenario:
// the cluster shape, the data population, and the workload spec.
type ScenarioConfig struct {
	ID           ScenarioID
	Nodes        int
	MemQuota     units.Bytes // per-node main-memory quota
	DatasetSize  units.Bytes
	DatasetCount int
	Chkmax       units.Bytes
	Spec         Spec
	// System1 marks the 8-node GTX 285 cluster; otherwise the ANL system.
	System1 bool
}

// TotalMemory returns the cluster-wide quota (Table II's "total memory").
func (c ScenarioConfig) TotalMemory() units.Bytes {
	return units.Bytes(c.Nodes) * c.MemQuota
}

// TotalData returns the combined dataset size (Table II's "total size").
func (c ScenarioConfig) TotalData() units.Bytes {
	return units.Bytes(c.DatasetCount) * c.DatasetSize
}

// Scenario returns the paper's configuration for the given scenario,
// optionally scaled: scale ∈ (0,1] shrinks the run length and job targets
// proportionally so unit tests finish quickly while benchmarks run the full
// thing. The cluster and data shapes are never scaled — they are what the
// scenario is about.
func Scenario(id ScenarioID, scale float64) ScenarioConfig {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	scaleN := func(n int) int {
		v := int(float64(n) * scale)
		if v < 1 {
			v = 1
		}
		return v
	}
	scaleT := func(t units.Time) units.Time {
		v := units.Time(float64(t) * scale)
		if min := units.Time(2 * units.Second); v < min {
			v = min
		}
		return v
	}
	switch id {
	case Scenario1:
		length := scaleT(units.Time(60 * units.Second))
		return ScenarioConfig{
			ID: id, Nodes: 8, MemQuota: 2 * units.GB,
			DatasetSize: 2 * units.GB, DatasetCount: 6, Chkmax: 512 * units.MB,
			System1: true,
			Spec: Spec{
				Length: length, Datasets: 6,
				ContinuousActions: 6,
				Seed:              101,
			},
		}
	case Scenario2:
		length := scaleT(units.Time(120 * units.Second))
		return ScenarioConfig{
			ID: id, Nodes: 8, MemQuota: 2 * units.GB,
			DatasetSize: 2 * units.GB, DatasetCount: 12, Chkmax: 512 * units.MB,
			System1: true,
			Spec: Spec{
				Length: length, Datasets: 12,
				TargetInteractive: scaleN(21011),
				TargetBatch:       scaleN(2251),
				ShortActionMin:    3 * units.Second,
				ShortActionMax:    10 * units.Second,
				HotDatasets:       6,
				HotFraction:       0.985,
				BatchUniform:      true,
				BatchFramesMin:    10, BatchFramesMax: 60,
				Seed: 102,
			},
		}
	case Scenario3:
		length := scaleT(units.Time(300 * units.Second))
		return ScenarioConfig{
			ID: id, Nodes: 64, MemQuota: 8 * units.GB,
			DatasetSize: 8 * units.GB, DatasetCount: 32, Chkmax: 512 * units.MB,
			Spec: Spec{
				Length: length, Datasets: 32,
				TargetInteractive: scaleN(160633),
				TargetBatch:       scaleN(9844),
				ShortActionMin:    3 * units.Second,
				ShortActionMax:    12 * units.Second,
				BatchFramesMin:    20, BatchFramesMax: 120,
				Seed: 103,
			},
		}
	case Scenario4:
		length := scaleT(units.Time(600 * units.Second))
		return ScenarioConfig{
			ID: id, Nodes: 64, MemQuota: 8 * units.GB,
			DatasetSize: 8 * units.GB, DatasetCount: 128, Chkmax: 512 * units.MB,
			Spec: Spec{
				Length: length, Datasets: 128,
				TargetInteractive: scaleN(388481),
				TargetBatch:       scaleN(35176),
				ShortActionMin:    3 * units.Second,
				ShortActionMax:    12 * units.Second,
				BatchFramesMin:    20, BatchFramesMax: 120,
				Seed: 104,
			},
		}
	default:
		panic(fmt.Sprintf("workload: unknown scenario %d", id))
	}
}

// Library builds the scenario's dataset library under the given
// decomposition policy (schedulers may override the policy; see
// core.DecompositionOverrider).
func (c ScenarioConfig) Library(policy volume.Decomposition) *volume.Library {
	lib := volume.NewLibrary()
	for i := 1; i <= c.DatasetCount; i++ {
		name := fmt.Sprintf("dataset-%02d", i)
		lib.Add(volume.NewDataset(volume.DatasetID(i), name, c.DatasetSize, policy))
	}
	return lib
}
