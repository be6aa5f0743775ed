package service

import (
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"vizsched/internal/core"
	"vizsched/internal/metrics"
	"vizsched/internal/qos"
	"vizsched/internal/transport"
	"vizsched/internal/units"
)

// settleOutcome polls the controller until per-tenant accounting is closed
// (every issued job completed, failed, shed, or rejected) or times out.
func settleOutcome(t *testing.T, head *Head) *metrics.QoSOutcome {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		out := head.QoSController().Outcome()
		settled := true
		for _, ts := range out.Tenants {
			if ts.Completed+ts.Failed+ts.ShedTotal+ts.Rejected != ts.Issued {
				settled = false
			}
		}
		if settled {
			return out
		}
		if time.Now().After(deadline) {
			t.Fatalf("per-tenant accounting never settled: %+v", out.Tenants)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestQoSMaxQueueBoundaryMixedTenants drives the bounded fair queue with two
// tenants behind a frame that has taken the only node: at MaxQueue the
// backstop sheds the oldest queued interactive frame and rejects queued batch
// work, while per-tenant accounting stays exact.
func TestQoSMaxQueueBoundaryMixedTenants(t *testing.T) {
	cat := testCatalog(t, 2)
	head := NewHead(watched(200*units.Millisecond, true), cat, 64*units.MB, core.DefaultCostModel())
	head.Logf = func(string, ...any) {}
	head.MaxQueue = 1
	head.QoS = &qos.Config{InteractiveRate: 1000, InteractiveBurst: 1000, BatchRate: 1000, BatchBurst: 1000}

	w := NewWorker("w0", cat, 64*units.MB)
	w.Logf = head.Logf
	hw, ww := transport.Pipe()
	go func() { _ = w.Serve(ww) }()
	if err := head.AddWorker(hw); err != nil {
		t.Fatal(err)
	}
	if err := head.Start(); err != nil {
		t.Fatal(err)
	}
	defer head.Stop()

	clientSide, headSide := transport.Pipe()
	go head.HandleClient(headSide)
	client := NewClient(clientSide)
	defer client.Close()

	// Alternate tenants so the shed victims cross tenant lines: a t1 frame
	// (finds the head idle, takes the node), a t2 frame (queues), a t1 frame
	// (sheds t2's), a t2 frame (sheds t1's), then a t2 batch job that cannot
	// fit the bound at all.
	var chans []<-chan Outcome
	for f := 0; f < 4; f++ {
		ch, err := client.RenderAsync(RenderBody{
			Dataset: "plume", Angle: 0.2 * float64(f), Dist: 2.4,
			Width: 24, Height: 24, Action: f%2 + 1, Tenant: f%2 + 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	batchCh, err := client.RenderAsync(RenderBody{
		Dataset: "plume", Dist: 2.4, Width: 24, Height: 24,
		Batch: true, Action: 9, Tenant: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out := <-batchCh; out.Err == nil || !strings.Contains(out.Err.Error(), "overloaded") {
		t.Errorf("batch at full queue: err = %v, want overloaded rejection", out.Err)
	}

	var completed, shed int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for f, ch := range chans {
		f, ch := f, ch
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case out := <-ch:
				mu.Lock()
				defer mu.Unlock()
				if out.Err == nil {
					completed++
				} else if strings.Contains(out.Err.Error(), "shed") {
					shed++
				} else {
					t.Errorf("frame %d: unexpected error %v", f, out.Err)
				}
			case <-time.After(30 * time.Second):
				t.Errorf("frame %d hung", f)
			}
		}()
	}
	wg.Wait()
	if completed != 2 {
		t.Errorf("completed = %d, want 2: the frame that took the node and the newest", completed)
	}
	if shed != 2 {
		t.Errorf("shed = %d, want 2", shed)
	}
	if got := head.Stats().JobsShed; got != 3 { // 2 interactive + 1 batch
		t.Errorf("JobsShed = %d, want 3", got)
	}

	out := settleOutcome(t, head)
	if len(out.Tenants) != 2 {
		t.Fatalf("tenants in outcome = %d, want 2", len(out.Tenants))
	}
	var issued, sheds int64
	for _, ts := range out.Tenants {
		issued += ts.Issued
		sheds += ts.ShedTotal
		if ts.ShedOnArrival() != 0 {
			t.Errorf("tenant %d: %d arrival sheds, want all sheds from the queue bound", ts.Tenant, ts.ShedOnArrival())
		}
	}
	if issued != 5 || sheds != 3 {
		t.Errorf("outcome issued=%d sheds=%d, want 5 and 3", issued, sheds)
	}
}

// TestQoSLiveOverloadLadderRecovers is the live overload demo: flooding two
// tenants through a one-worker head engages the degradation ladder; pacing
// the same sessions afterwards walks it back to normal with no head restart,
// interactive latency back under the SLO, and every job accounted for.
func TestQoSLiveOverloadLadderRecovers(t *testing.T) {
	const slo = 50 * time.Millisecond
	cat := testCatalog(t, 2)
	cl, err := StartClusterWith(core.NewLocalityScheduler(2*units.Millisecond), cat, 1, 64*units.MB, func(h *Head) {
		h.QoS = &qos.Config{
			InteractiveRate: 1e6, InteractiveBurst: 1e6,
			BatchRate: 1e6, BatchBurst: 1e6,
			InteractiveSLO: units.Duration(slo),
			Window:         units.Duration(50 * time.Millisecond),
			StepWindows:    1,
			RecoverWindows: 2,
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	client := cl.Connect()
	defer client.Close()
	head := cl.Head

	issued := map[int]int64{}
	// Flood: both tenants fire frames as fast as the pipe accepts; a single
	// worker serializes the renders, so tail latency grows far past the SLO.
	// How many frames that takes depends on how fast a frame is, so the flood
	// repeats in rounds until the ladder has stepped.
	var okReplies, errReplies int64
	floodBy := time.Now().Add(20 * time.Second)
	for len(head.QoSController().History()) == 0 {
		if time.Now().After(floodBy) {
			t.Fatal("flood never engaged the degradation ladder")
		}
		var chans []<-chan Outcome
		for f := 0; f < 120; f++ {
			tenant := f%2 + 1
			ch, err := client.RenderAsync(RenderBody{
				Dataset: "plume", Angle: 0.01 * float64(f), Dist: 2.4,
				Width: 24, Height: 24, Action: tenant, Tenant: tenant,
			})
			if err != nil {
				t.Fatal(err)
			}
			issued[tenant]++
			chans = append(chans, ch)
		}
		for _, ch := range chans {
			if out := <-ch; out.Err == nil {
				okReplies++
			} else {
				errReplies++
			}
		}
	}

	// Recovery: pace the same two sessions gently until the ladder is fully
	// withdrawn. Each frame completes in a couple of milliseconds, so every
	// ladder window is clean.
	var pacedOK int64
	paced := func(f int) RenderResult {
		tenant := f%2 + 1
		r, err := client.Render(RenderBody{
			Dataset: "plume", Angle: 0.5, Dist: 2.4,
			Width: 24, Height: 24, Action: tenant, Tenant: tenant,
		})
		if err != nil {
			t.Fatalf("paced frame failed during recovery: %v", err)
		}
		issued[tenant]++
		pacedOK++
		return r
	}
	deadline := time.Now().Add(20 * time.Second)
	for f := 0; head.QoSController().Level() != qos.LevelNormal; f++ {
		if time.Now().After(deadline) {
			t.Fatalf("ladder stuck at %v", head.QoSController().Level())
		}
		paced(f)
		time.Sleep(15 * time.Millisecond)
	}

	// Recovered: fresh frames must meet the SLO at p95.
	var lat []time.Duration
	for f := 0; f < 20; f++ {
		lat = append(lat, paced(f).Elapsed)
		time.Sleep(10 * time.Millisecond)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if p95 := lat[len(lat)*95/100]; p95 > slo {
		t.Errorf("post-recovery interactive p95 = %v, want under SLO %v", p95, slo)
	}

	out := settleOutcome(t, head)
	hist := head.QoSController().History()
	maxLevel := qos.LevelNormal
	for _, ch := range hist {
		if ch.Level > maxLevel {
			maxLevel = ch.Level
		}
	}
	if maxLevel < qos.LevelHalveBatch {
		t.Errorf("max ladder level = %v, want at least halve-batch", maxLevel)
	}
	if out.FinalLevel != int(qos.LevelNormal) {
		t.Errorf("final level = %d, want normal", out.FinalLevel)
	}
	// Every issued job is accounted: per tenant the issue count matches what
	// the client sent, and completions/failures/sheds/rejections cover it.
	var outCompleted int64
	for _, ts := range out.Tenants {
		if ts.Issued != issued[ts.Tenant] {
			t.Errorf("tenant %d: controller issued=%d, client sent %d", ts.Tenant, ts.Issued, issued[ts.Tenant])
		}
		if got := ts.Completed + ts.Failed + ts.ShedTotal + ts.Rejected; got != ts.Issued {
			t.Errorf("tenant %d: accounting gap: %d of %d jobs accounted", ts.Tenant, got, ts.Issued)
		}
		outCompleted += ts.Completed
	}
	// Client-side view must agree: every success reply is a controller
	// completion, every error reply a failure/shed/rejection.
	if want := okReplies + pacedOK; outCompleted != want {
		t.Errorf("controller completed=%d, client saw %d successes", outCompleted, want)
	}
	if s := head.Stats(); s.QoS == nil || s.QoS.Jain <= 0 {
		t.Errorf("stats snapshot missing QoS section: %+v", s.QoS)
	}
}
