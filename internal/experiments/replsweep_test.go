package experiments

import (
	"testing"
)

// replSweepKs/replSweepRates: the ISSUE's acceptance grid — a clean baseline
// plus a crash-heavy rate where re-homing is observable — at the failsweep's
// scale so cells stay comparable with that suite.
var (
	replSweepKs    = []int{1, 2, 3}
	replSweepRates = []float64{0, 4}
)

const replSweepScale = 0.5

// TestReplicaSweepAcceptance encodes the PR's acceptance criteria on the
// deterministic sweep: at k=2 OURS must recover no worse than 1.2× FCFSU
// (raw MTTR and post-crash below-target time) while retaining at least 90%
// of its no-fault framerate advantage over FCFSU.
func TestReplicaSweepAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep runs full simulations")
	}
	points := ReplicaSweepN(replSweepKs, replSweepRates, replSweepScale, DefaultWorkers())
	cell := func(rate float64, k int) ReplicaSweepPoint {
		for _, p := range points {
			if p.Rate == rate && p.K == k {
				return p
			}
		}
		t.Fatalf("no cell for rate=%v k=%d", rate, k)
		return ReplicaSweepPoint{}
	}
	faultRate := replSweepRates[len(replSweepRates)-1]
	fcfsu := cell(faultRate, 0)
	k1 := cell(faultRate, 1)
	k2 := cell(faultRate, 2)

	if lim := fcfsu.MTTR + fcfsu.MTTR/5; k2.MTTR > lim {
		t.Errorf("k=2 MTTR %v exceeds 1.2× FCFSU's %v", k2.MTTR, fcfsu.MTTR)
	}
	if lim := fcfsu.DipBelow + fcfsu.DipBelow/5; k2.DipBelow > lim {
		t.Errorf("k=2 dip duration %v exceeds 1.2× FCFSU's %v", k2.DipBelow, fcfsu.DipBelow)
	}

	// No-fault framerate advantage retention: replication's spread placements
	// must not trade away the scheduler's headline win.
	base := cell(0, 0)
	adv1 := cell(0, 1).Framerate - base.Framerate
	adv2 := cell(0, 2).Framerate - base.Framerate
	if adv1 <= 0 {
		t.Fatalf("OURS k=1 shows no no-fault advantage over FCFSU (%.2f vs %.2f)",
			cell(0, 1).Framerate, base.Framerate)
	}
	if adv2 < 0.9*adv1 {
		t.Errorf("k=2 retains %.2f fps of the %.2f fps no-fault advantage, want ≥90%%", adv2, adv1)
	}

	// Replication must actually fire under crashes — k≥2 re-homes chunks the
	// single-home run loses — and capping at the re-home can only shorten the
	// service-impact MTTR, never lengthen it.
	if k1.ChunksRehomed != 0 {
		t.Errorf("k=1 re-homed %d chunks; the layer should be off", k1.ChunksRehomed)
	}
	if k2.ChunksRehomed == 0 {
		t.Errorf("k=2 re-homed no chunks at rate %.1f", faultRate)
	}
	if k2.ServiceMTTR > k2.MTTR {
		t.Errorf("k=2 ServiceMTTR %v exceeds raw MTTR %v", k2.ServiceMTTR, k2.MTTR)
	}
	if k2.ServiceMTTR >= k1.ServiceMTTR && k2.ChunksRehomed > 0 {
		t.Errorf("k=2 ServiceMTTR %v not improved over k=1's %v despite %d warm re-homes",
			k2.ServiceMTTR, k1.ServiceMTTR, k2.ChunksRehomed)
	}

	// Clean baseline rows must show no recovery or replication activity.
	for _, p := range points {
		if p.Rate == 0 && (p.ChunksRehomed != 0 || p.ChunksReseeded != 0 || p.MTTR != 0 || p.ServiceMTTR != 0) {
			t.Errorf("rate 0 %s k=%d: rehome=%d reseed=%d MTTR=%v svc=%v, want all zero",
				p.Scheduler, p.K, p.ChunksRehomed, p.ChunksReseeded, p.MTTR, p.ServiceMTTR)
		}
	}
}

// TestReplicaSweepRowLayout pins the output contract: rows grouped by rate,
// FCFSU (K=0) first, then OURS in ks order — what the table's rows rely on.
func TestReplicaSweepRowLayout(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep runs full simulations")
	}
	points := ReplicaSweepN([]int{1, 2}, []float64{0, 4}, 0.2, 2)
	wantK := []int{0, 1, 2, 0, 1, 2}
	wantRate := []float64{0, 0, 0, 4, 4, 4}
	if len(points) != len(wantK) {
		t.Fatalf("got %d points, want %d", len(points), len(wantK))
	}
	for i, p := range points {
		if p.K != wantK[i] || p.Rate != wantRate[i] {
			t.Errorf("row %d: (rate=%v k=%d), want (rate=%v k=%d)", i, p.Rate, p.K, wantRate[i], wantK[i])
		}
		if p.K == 0 && p.Scheduler != "FCFSU" {
			t.Errorf("row %d: K=0 scheduler = %s", i, p.Scheduler)
		}
		if p.K > 0 && p.Scheduler != "OURS" {
			t.Errorf("row %d: K=%d scheduler = %s", i, p.K, p.Scheduler)
		}
	}
}
