package livestats

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"homesight/internal/background"
	"homesight/internal/corrsim"
	"homesight/internal/dominance"
	"homesight/internal/gateway"
	"homesight/internal/stats/corr"
	"homesight/internal/store"
	"homesight/internal/synth"
)

// testDeployment is the shared small campaign: long enough for the
// coefficients to be significant, small enough to keep the exact-mode
// caps affordable.
func testDeployment(t *testing.T) *synth.Deployment {
	t.Helper()
	return synth.NewDeployment(synth.Config{Homes: 2, Weeks: 1, Seed: 42})
}

// campaignReports emits one home's full campaign as cumulative counter
// reports, exactly as a real gateway would send them.
func campaignReports(dep *synth.Deployment, i int) []gateway.Report {
	h := dep.Home(i)
	traffic := h.Traffic()
	em := gateway.NewEmitter(h.ID)
	cfg := dep.Config()
	var reps []gateway.Report
	for m := 0; m < cfg.Minutes(); m++ {
		var dms []gateway.DeviceMinute
		for _, dt := range traffic {
			dms = append(dms, gateway.DeviceMinute{
				MAC:      dt.Spec.Device.MAC,
				Name:     dt.Spec.Device.Name,
				InBytes:  dt.In.Values[m],
				OutBytes: dt.Out.Values[m],
			})
		}
		rep := em.Emit(cfg.Start.Add(time.Duration(m)*time.Minute), dms)
		if len(rep.Devices) == 0 {
			continue
		}
		reps = append(reps, rep)
	}
	return reps
}

// exactConfig sizes the operators so the whole campaign stays in exact
// mode: the online answers must then match batch bit-for-bit (rank and
// quantile statistics) or within FP accumulation noise (Pearson,
// Euclidean).
func exactConfig(dep *synth.Deployment) Config {
	cfg := dep.Config()
	return Config{
		Start:   cfg.Start,
		Step:    time.Minute,
		RankCap: cfg.Minutes() + 1,
		Seed:    1,
	}
}

// reconcile asserts one snapshot against the batch answers within the
// documented exact-mode tolerances.
func reconcile(t *testing.T, snap *HomeSnapshot, off *HomeProfile) {
	t.Helper()
	if len(snap.Devices) != len(off.Dominance.All) {
		t.Fatalf("device count: online %d, batch %d", len(snap.Devices), len(off.Dominance.All))
	}
	thresholds := make(map[string]background.Threshold, len(off.Devices))
	for _, row := range off.Devices {
		thresholds[row.Device.MAC] = row.Threshold
	}
	for i, d := range snap.Devices {
		mac := d.Device.MAC
		want, ok := off.Details[mac]
		if !ok {
			t.Fatalf("batch has no detail for %s", mac)
		}
		if int64(want.N) != d.Pairs {
			t.Errorf("%s: pairs online %d, batch %d", mac, d.Pairs, want.N)
		}
		if !resultClose(d.Pearson, want.Pearson, 1e-9, 1e-6) {
			t.Errorf("%s: Pearson online %+v, batch %+v", mac, d.Pearson, want.Pearson)
		}
		// Rank statistics run on the identical pair sequence in exact
		// mode: bit equality, NaN-aware.
		if !resultClose(d.Spearman, want.Spearman, 0, 0) {
			t.Errorf("%s: Spearman online %+v, batch %+v", mac, d.Spearman, want.Spearman)
		}
		if !resultClose(d.Kendall, want.Kendall, 0, 0) {
			t.Errorf("%s: Kendall online %+v, batch %+v", mac, d.Kendall, want.Kendall)
		}
		if math.Abs(d.Similarity-want.Similarity) > 1e-9 {
			t.Errorf("%s: similarity online %v, batch %v", mac, d.Similarity, want.Similarity)
		}
		th := thresholds[mac]
		if d.Threshold != th {
			t.Errorf("%s: threshold online %+v, batch %+v", mac, d.Threshold, th)
		}
		if d.Tau != th.Tau() {
			t.Errorf("%s: tau online %v, batch %v", mac, d.Tau, th.Tau())
		}
		// The batch result is sorted descending by similarity with the
		// same stable tie order (MAC) — ranks must line up.
		bs := off.Dominance.All[i]
		if bs.Device.MAC != mac {
			t.Errorf("rank %d: online %s, batch %s", i, mac, bs.Device.MAC)
		}
		if bs.Traffic != d.Traffic {
			t.Errorf("%s: traffic online %v, batch %v", mac, d.Traffic, bs.Traffic)
		}
		if relDiff(d.Euclidean, bs.Euclidean) > 1e-9 {
			t.Errorf("%s: euclidean online %v, batch %v", mac, d.Euclidean, bs.Euclidean)
		}
	}
	dom := snap.Dominance()
	if len(dom.Dominants) != len(off.Dominance.Dominants) {
		t.Fatalf("dominants: online %d, batch %d", len(dom.Dominants), len(off.Dominance.Dominants))
	}
	for i := range dom.Dominants {
		if dom.Dominants[i].Device.MAC != off.Dominance.Dominants[i].Device.MAC {
			t.Errorf("dominant %d: online %s, batch %s",
				i, dom.Dominants[i].Device.MAC, off.Dominance.Dominants[i].Device.MAC)
		}
	}
}

// resultClose compares two corr.Results NaN-aware: coefficient within
// ctol, p-value within ptol (0 = exact).
func resultClose(a, b corr.Result, ctol, ptol float64) bool {
	if a.N != b.N {
		return false
	}
	if math.IsNaN(a.Coeff) != math.IsNaN(b.Coeff) {
		return false
	}
	if !math.IsNaN(a.Coeff) && math.Abs(a.Coeff-b.Coeff) > ctol {
		return false
	}
	return math.Abs(a.PValue-b.PValue) <= ptol
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

// storeFromReports appends the reports to a fresh homestore under
// t.TempDir and reopens nothing — the live handle is returned.
func storeFromReports(t *testing.T, dep *synth.Deployment, reps []gateway.Report) *store.Store {
	t.Helper()
	cfg := dep.Config()
	st, err := store.Open(store.Config{
		Dir:   t.TempDir(),
		Start: cfg.Start,
		Step:  time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	for _, rep := range reps {
		if err := st.Append(rep); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestTrackerReconcilesCleanStream is the exact-mode correctness spine:
// the online snapshot of a clean synthetic campaign must match the
// batch pipeline over the same stream persisted to a store.
func TestTrackerReconcilesCleanStream(t *testing.T) {
	dep := testDeployment(t)
	tr := NewTracker(exactConfig(dep))
	for i := 0; i < dep.NumHomes(); i++ {
		reps := campaignReports(dep, i)
		st := storeFromReports(t, dep, reps)
		for _, rep := range reps {
			tr.OnReport(rep)
		}
		gw := dep.Home(i).ID
		snap, ok := tr.Snapshot(gw)
		if !ok {
			t.Fatalf("no snapshot for %s", gw)
		}
		off, err := Offline(context.Background(), st, gw, corrsim.Measure{}, dominance.DefaultPhi)
		if err != nil {
			t.Fatal(err)
		}
		reconcile(t, snap, off)
		if snap.Minutes == 0 || snap.Reports == 0 {
			t.Errorf("%s: empty accounting %+v", gw, snap)
		}
	}
	if m := tr.cfg.Metrics; m.Homes.Value() != float64(dep.NumHomes()) || m.Stale.Value() != 0 {
		t.Errorf("tracker counts %v homes and %d stale rows, want %d and 0", m.Homes.Value(), m.Stale.Value(), dep.NumHomes())
	}
}

// TestFaultTrackerIdempotent feeds the same campaign with
// injected duplicates and reorderings: the per-device watermark must
// drop them and the final snapshot must equal the clean one exactly.
func TestFaultTrackerIdempotent(t *testing.T) {
	dep := testDeployment(t)
	reps := campaignReports(dep, 0)
	gw := dep.Home(0).ID

	clean := NewTracker(exactConfig(dep))
	for _, rep := range reps {
		clean.OnReport(rep)
	}
	cleanSnap, _ := clean.Snapshot(gw)

	faulty := NewTracker(exactConfig(dep))
	rng := rand.New(rand.NewSource(5))
	for i, rep := range reps {
		faulty.OnReport(rep)
		if rng.Float64() < 0.1 {
			faulty.OnReport(rep) // duplicate delivery
		}
		if i > 0 && rng.Float64() < 0.1 {
			faulty.OnReport(reps[rng.Intn(i)]) // stale redelivery
		}
	}
	faultySnap, _ := faulty.Snapshot(gw)
	if faulty.cfg.Metrics.Stale.Value() == 0 {
		t.Fatal("fault injection produced no stale rows")
	}

	if len(cleanSnap.Devices) != len(faultySnap.Devices) {
		t.Fatalf("device count diverged: %d vs %d", len(cleanSnap.Devices), len(faultySnap.Devices))
	}
	for i := range cleanSnap.Devices {
		c, f := cleanSnap.Devices[i], faultySnap.Devices[i]
		if c.Device.MAC != f.Device.MAC || c.Pairs != f.Pairs ||
			c.Similarity != f.Similarity || c.Traffic != f.Traffic ||
			c.Euclidean != f.Euclidean || c.Threshold != f.Threshold {
			t.Errorf("device %d diverged under faults:\nclean  %+v\nfaulty %+v", i, c, f)
		}
	}
}

// TestTrackerRebuildFromStore proves the replay-rebuild protocol: a
// tracker warmed from the store's durable history converges with one
// that watched the live stream, and redelivering the tail after the
// rebuild is a no-op.
func TestTrackerRebuildFromStore(t *testing.T) {
	dep := testDeployment(t)
	reps := campaignReports(dep, 0)
	gw := dep.Home(0).ID
	st := storeFromReports(t, dep, reps)

	live := NewTracker(exactConfig(dep))
	for _, rep := range reps {
		live.OnReport(rep)
	}
	liveSnap, _ := live.Snapshot(gw)

	rebuilt := NewTracker(exactConfig(dep))
	fed, err := rebuilt.Rebuild(context.Background(), st)
	if err != nil {
		t.Fatal(err)
	}
	if fed != len(reps) {
		t.Fatalf("rebuilt %d reports, want %d", fed, len(reps))
	}
	// Redeliver a tail window: the watermarks make it idempotent.
	for _, rep := range reps[len(reps)-50:] {
		rebuilt.OnReport(rep)
	}
	rebuiltSnap, _ := rebuilt.Snapshot(gw)
	for i := range liveSnap.Devices {
		l, r := liveSnap.Devices[i], rebuiltSnap.Devices[i]
		if l.Device.MAC != r.Device.MAC || l.Pairs != r.Pairs ||
			l.Similarity != r.Similarity || l.Traffic != r.Traffic ||
			l.Threshold != r.Threshold {
			t.Errorf("device %d diverged after rebuild:\nlive    %+v\nrebuilt %+v", i, l, r)
		}
	}
}

// TestTrackerUnknownGateway: untracked gateways return ok=false, and
// Homes lists the tracked set sorted.
func TestTrackerUnknownGateway(t *testing.T) {
	tr := NewTracker(Config{Start: time.Unix(0, 0).UTC()})
	if _, ok := tr.Snapshot("nope"); ok {
		t.Error("snapshot of unknown gateway returned ok")
	}
	base := time.Unix(0, 0).UTC()
	for _, gw := range []string{"gwB", "gwA"} {
		tr.OnReport(gateway.Report{GatewayID: gw, Timestamp: base,
			Devices: []gateway.DeviceCounters{{MAC: "aa:aa:aa:aa:aa:01", RxBytes: 10, TxBytes: 5}}})
	}
	homes := tr.Homes()
	if len(homes) != 2 || homes[0] != "gwA" || homes[1] != "gwB" {
		t.Errorf("Homes() = %v, want [gwA gwB]", homes)
	}
}

// TestTrackerPreCampaignReport: a report before the grid start is
// dropped whole and counted stale.
func TestTrackerPreCampaignReport(t *testing.T) {
	start := time.Unix(86400, 0).UTC()
	tr := NewTracker(Config{Start: start})
	tr.OnReport(gateway.Report{GatewayID: "gw", Timestamp: start.Add(-time.Hour),
		Devices: []gateway.DeviceCounters{{MAC: "aa:aa:aa:aa:aa:01"}}})
	if m := tr.cfg.Metrics; m.Stale.Value() != 1 || m.Homes.Value() != 0 {
		t.Errorf("after a pre-campaign report: %d stale rows, %v homes; want 1 and 0", m.Stale.Value(), m.Homes.Value())
	}
}

// TestSnapshotEuclideanDefinition pins the missing-as-zero Euclidean
// identity on a tiny hand-built stream.
func TestSnapshotEuclideanDefinition(t *testing.T) {
	start := time.Unix(0, 0).UTC()
	tr := NewTracker(Config{Start: start, Seed: 3})
	em := gateway.NewEmitter("gw")
	// Device A reports every minute; device B misses minute 2 (NaN →
	// absent from the report), so B's distance must treat that minute
	// as |0 − G|².
	mins := [][]gateway.DeviceMinute{
		{{MAC: "aa:aa:aa:aa:aa:01", InBytes: 10, OutBytes: 0}, {MAC: "aa:aa:aa:aa:aa:02", InBytes: 4, OutBytes: 0}},
		{{MAC: "aa:aa:aa:aa:aa:01", InBytes: 20, OutBytes: 0}, {MAC: "aa:aa:aa:aa:aa:02", InBytes: 6, OutBytes: 0}},
		{{MAC: "aa:aa:aa:aa:aa:01", InBytes: 30, OutBytes: 0}, {MAC: "aa:aa:aa:aa:aa:02", InBytes: math.NaN(), OutBytes: math.NaN()}},
		{{MAC: "aa:aa:aa:aa:aa:01", InBytes: 40, OutBytes: 0}, {MAC: "aa:aa:aa:aa:aa:02", InBytes: 8, OutBytes: 0}},
	}
	for m, dms := range mins {
		tr.OnReport(em.Emit(start.Add(time.Duration(m)*time.Minute), dms))
	}
	snap, ok := tr.Snapshot("gw")
	if !ok {
		t.Fatal("no snapshot")
	}
	// The first report only initializes the meters. A's deltas are the
	// per-minute inputs 20, 30, 40; B observes only minute 1 (delta 6)
	// because the minute-2 gap resets its meter and the minute-3
	// reading re-initializes it. So G(1)=26, G(2)=30, G(3)=40.
	byMAC := map[string]DeviceLive{}
	for _, d := range snap.Devices {
		byMAC[d.Device.MAC] = d
	}
	a, b := byMAC["aa:aa:aa:aa:aa:01"], byMAC["aa:aa:aa:aa:aa:02"]
	wantA := math.Sqrt(float64((26-20)*(26-20) + (30-30)*(30-30) + (40-40)*(40-40)))
	if relDiff(a.Euclidean, wantA) > 1e-12 {
		t.Errorf("A euclidean = %v, want %v", a.Euclidean, wantA)
	}
	// B's only observed pair is minute 1: (26-6)², plus the
	// missing-as-zero minutes 2 and 3: 30² and 40².
	wantB := math.Sqrt(float64((26-6)*(26-6) + 30*30 + 40*40))
	if relDiff(b.Euclidean, wantB) > 1e-12 {
		t.Errorf("B euclidean = %v, want %v", b.Euclidean, wantB)
	}
	if a.Traffic != 90 || b.Traffic != 6 {
		t.Errorf("traffic A=%v B=%v, want 90 and 6", a.Traffic, b.Traffic)
	}
}

// TestOnReportSteadyStateAllocatesNothing: on an established home — every
// device known, the reservoirs past their capacity, every delta landing on
// a histogram page an earlier one touched — a report allocates nothing.
func TestOnReportSteadyStateAllocatesNothing(t *testing.T) {
	start := time.Unix(0, 0).UTC()
	tr := NewTracker(Config{Start: start, RankCap: 16, Seed: 1})
	rep := gateway.Report{GatewayID: "gw", Devices: make([]gateway.DeviceCounters, 6)}
	for d := range rep.Devices {
		rep.Devices[d].MAC = fmt.Sprintf("aa:aa:aa:aa:aa:%02x", d)
	}
	minute := 0
	send := func() {
		for d := range rep.Devices {
			// Deltas cycle through five values per direction: one in the
			// unit-bucket range, one in the log range.
			rep.Devices[d].RxBytes += uint64(1000 + 37*d + minute%5)
			rep.Devices[d].TxBytes += uint64(90000 + 1000*d + minute%5)
		}
		rep.Timestamp = start.Add(time.Duration(minute) * time.Minute)
		minute++
		tr.OnReport(rep)
	}
	for i := 0; i < 64; i++ {
		send()
	}
	if a := testing.AllocsPerRun(200, send); a != 0 {
		t.Errorf("steady-state OnReport allocates %v times per report, want 0", a)
	}
	if m := tr.cfg.Metrics; m.Stale.Value() != 0 || m.Reports.Value() != int64(minute) {
		t.Errorf("the stream was meant to be clean: %d stale rows, %d reports processed after %d reports",
			m.Stale.Value(), m.Reports.Value(), minute)
	}
}

// TestTrackerSkipsReportsBeforeStart: a report stamped before the grid's
// start — even less than a step early — is stale, not the campaign's
// first minute, and the report at the start opens the home.
func TestTrackerSkipsReportsBeforeStart(t *testing.T) {
	start := time.Date(2014, 3, 17, 0, 0, 0, 0, time.UTC)
	for _, early := range []time.Duration{30 * time.Second, time.Minute} {
		tr := NewTracker(Config{Start: start})
		rep := gateway.Report{GatewayID: "gw", Timestamp: start.Add(-early),
			Devices: []gateway.DeviceCounters{{MAC: "aa", RxBytes: 10, TxBytes: 1}, {MAC: "bb", RxBytes: 5, TxBytes: 5}}}
		tr.OnReport(rep)
		m := tr.cfg.Metrics
		if m.Stale.Value() != 2 || m.Reports.Value() != 0 || len(tr.Homes()) != 0 {
			t.Errorf("report at start−%v: %d stale rows, %d reports processed, homes %v; want 2 stale rows and no home",
				early, m.Stale.Value(), m.Reports.Value(), tr.Homes())
		}
		rep.Timestamp = start
		tr.OnReport(rep)
		if m.Stale.Value() != 2 || m.Reports.Value() != 1 || m.Devices.Value() != 2 {
			t.Errorf("report at start after one at start−%v: %d stale rows, %d reports processed, %v devices; want it processed",
				early, m.Stale.Value(), m.Reports.Value(), m.Devices.Value())
		}
	}
}

// Dominance converts the snapshot into the batch dominance.Result
// shape: All in descending similarity order, Dominants filtered at φ.
func (s *HomeSnapshot) Dominance() dominance.Result {
	res := dominance.Result{All: make([]dominance.Score, 0, len(s.Devices))}
	for _, d := range s.Devices {
		res.All = append(res.All, dominance.Score{
			Device:     d.Device,
			Similarity: d.Similarity,
			Euclidean:  d.Euclidean,
			Traffic:    d.Traffic,
		})
	}
	for _, sc := range res.All {
		if sc.Similarity > s.Phi {
			res.Dominants = append(res.Dominants, sc)
		}
	}
	return res
}
