package experiments

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"homesight/internal/background"
	"homesight/internal/dataset"
	"homesight/internal/devices"
	"homesight/internal/gateway"
	"homesight/internal/motif"
	"homesight/internal/store"
	"homesight/internal/synth"
	"homesight/internal/timeseries"
)

// storeFixture is the two-home, one-week campaign the store-backed tests
// persist: small enough to replay in well under a second, and one where
// MAC order and inventory order disagree for most devices.
var storeFixture = synth.Config{Homes: 2, Weeks: 1, Seed: 11}

// storeEnv persists every home of storeFixture — flat[i], if set, names a
// device of home i whose counters never advance — and returns an Env over
// the closed store plus the parity recorders fed the same reports.
func storeEnv(t *testing.T, flat map[int]string) (*Env, []*gateway.Recorder) {
	t.Helper()
	dep := synth.NewDeployment(storeFixture)
	cfg := dep.Config()
	dir := t.TempDir()
	s, err := store.Open(store.Config{Dir: dir, Start: cfg.Start, Step: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*gateway.Recorder, cfg.Homes)
	for i := range recs {
		recs[i] = persistHome(t, s, dep, i, flat[i])
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(WithHomes(cfg.Homes), WithWeeks(cfg.Weeks), WithSeed(cfg.Seed), WithStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := env.Close(); err != nil {
			t.Error(err)
		}
	})
	return env, recs
}

// TestStoreBackedThresholdsBelongToTheirDevice pins the device-order
// regression: the store lists a home's devices by MAC and the synthesizer
// by inventory, and thresholds used to be memoized by device *index*
// under both, so a warmed store-backed Env handed Fig. 4 another device's
// τ (12 of this fixture's 15 devices). Every τ must be the estimate over
// that device's own stored traffic.
func TestStoreBackedThresholdsBelongToTheirDevice(t *testing.T) {
	env, recs := storeEnv(t, nil)
	if err := env.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	r, err := Fig04BackgroundTau(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	n, days := env.Campaign().Minutes(), env.WeeksMain*7
	checked := 0
	for i, rec := range recs {
		got := map[string]background.Threshold{}
		for _, dt := range env.home(i).taus {
			got[dt.dev.MAC] = dt.th
		}
		for _, mac := range rec.MACs() {
			in, out := rec.Series(mac, n)
			in, out = prefix(in, days), prefix(out, days)
			th, ok := got[mac]
			if in.ObservedCount() < 60 {
				if ok {
					t.Errorf("home %d device %s: barely observed, yet has a τ", i, mac)
				}
				continue
			}
			if want := background.EstimateThreshold(in, out); !ok || th != want {
				t.Errorf("home %d device %s: τ = %+v (present %v), its own stored traffic gives %+v", i, mac, th, ok, want)
			}
			checked++
		}
	}
	if checked != r.Devices || checked != 15 {
		t.Errorf("checked %d devices, Fig. 4 reports %d, fixture has 15", checked, r.Devices)
	}
}

// primaryMAC returns the MAC of home i's main device.
func primaryMAC(t *testing.T, i int) string {
	t.Helper()
	for _, spec := range synth.NewDeployment(storeFixture).Home(i).Devices {
		if spec.Primary {
			return spec.Device.MAC
		}
	}
	t.Fatalf("home %d has no primary device", i)
	return ""
}

// TestStoreBackedExperimentsReadTheStore: the experiments that walk a
// home's minute-level traffic used to generate it themselves, so under
// WithStore they analysed the synthesizer's campaign whatever the store
// held. Two stores that differ in one device (home 0's main device moves
// no bytes in the second) must give different answers.
func TestStoreBackedExperimentsReadTheStore(t *testing.T) {
	ctx := context.Background()
	silenced := primaryMAC(t, 0)
	plain, _ := storeEnv(t, nil)
	flat, _ := storeEnv(t, map[int]string{0: silenced})

	pIO, _ := TabInOutCorrelation(ctx, plain)
	fIO, _ := TabInOutCorrelation(ctx, flat)
	if pIO == fIO {
		t.Errorf("TabInOutCorrelation ignores the store: %+v from both", pIO)
	}
	if p, f := plain.home(1).inOut, flat.home(1).inOut; p != f {
		t.Errorf("untouched home 1 moved: in/out %+v vs %+v", p, f)
	}
	// Fig. 1's anatomy is of the top observed home, home 0 in this fixture.
	if top := plain.TopObservedGateways(1)[0]; top != 0 {
		t.Fatalf("top observed home is %d; the fixture silences a device of home 0", top)
	}
	pF1, _ := Fig01TypicalGateway(ctx, plain)
	fF1, _ := Fig01TypicalGateway(ctx, flat)
	if p, f := pF1.String(), fF1.String(); p == f {
		t.Errorf("Fig01TypicalGateway ignores the store:\n%s", p)
	}
	pDC, _ := TabDeviceCountCorrelation(ctx, plain)
	fDC, _ := TabDeviceCountCorrelation(ctx, flat)
	if pDC == fDC {
		t.Errorf("TabDeviceCountCorrelation ignores the store: %+v from both", pDC)
	}

	// Fig. 4's table is too coarse to move (an idle laptop's τ is already
	// in the first bin); the threshold it bins is not.
	for _, env := range []*Env{plain, flat} {
		if _, err := Fig04BackgroundTau(ctx, env); err != nil {
			t.Fatal(err)
		}
		found := false
		for _, dt := range env.home(0).taus {
			if dt.dev.MAC != silenced {
				continue
			}
			found = true
			if silent := dt.th == (background.Threshold{}); silent != (env == flat) {
				t.Errorf("silenced device τ = %+v (flat store: %v)", dt.th, env == flat)
			}
		}
		if !found {
			t.Errorf("Fig. 4 has no τ for %s", silenced)
		}
	}

	// Motif-window dominance over one hand-made daily motif: every day of
	// home 0. In the plain store the only device that ever dominates a
	// day is the main one, a laptop; silenced, it leaves days to phones.
	start := plain.Campaign().Start
	m := &motif.Motif{ID: 1}
	for d := 0; d < 7; d++ {
		m.Members = append(m.Members, motif.Instance{
			GatewayID: plain.home(0).id,
			Window:    timeseries.Window{Start: start.Add(time.Duration(d) * timeseries.Day), Ordinal: d},
		})
	}
	set := MotifSetResult{Kind: "daily", Motifs: []*motif.Motif{m}}
	profiles := []MotifProfile{{MotifID: 1, Support: 7}}
	pDom, err := AnalyzeMotifDominance(ctx, plain, set, profiles)
	if err != nil {
		t.Fatal(err)
	}
	fDom, err := AnalyzeMotifDominance(ctx, flat, set, profiles)
	if err != nil {
		t.Fatal(err)
	}
	if p, f := pDom[0].TypeDist[devices.Portable], fDom[0].TypeDist[devices.Portable]; p != 0 || f == 0 {
		t.Errorf("portable share of window dominants: plain %.2f, main device silenced %.2f — want 0, then > 0\nplain %+v\n flat %+v",
			p, f, pDom[0], fDom[0])
	}
}

// reconstructedView is what the collection pipeline makes of home h's
// synthetic traffic, derived without the pipeline. Three differences,
// all forced by cumulative counters:
//
//  1. devices come back in MAC order, not inventory order;
//  2. the first minute of every run of reports from a device carries no
//     delta (there is no previous counter to subtract), so it is missing;
//  3. the gateway overall is the sum of the device series, so it is
//     missing wherever no device has a delta — the synthesizer says 0 for
//     a reporting gateway with no station associated.
func reconstructedView(h *synth.Home) *dataset.Gateway {
	traffic := append([]*synth.DeviceTraffic(nil), h.Traffic()...)
	sort.Slice(traffic, func(a, b int) bool { return traffic[a].Spec.Device.MAC < traffic[b].Spec.Device.MAC })
	g := &dataset.Gateway{ID: h.ID}
	for _, dt := range traffic {
		in, out := dt.In.Clone(), dt.Out.Clone()
		reported := false
		for m := range in.Values {
			was := reported
			reported = !math.IsNaN(dt.In.Values[m]) && !math.IsNaN(dt.Out.Values[m])
			if !reported || !was {
				in.Values[m], out.Values[m] = math.NaN(), math.NaN()
			}
		}
		d := dataset.NewDeviceRecord(dt.Spec.Device, in, out)
		g.Devices = append(g.Devices, d)
		if g.Overall == nil {
			g.Overall = d.Overall.Clone()
		} else if err := g.Overall.Add(d.Overall); err != nil {
			panic(err) // same grid by construction
		}
	}
	return g
}

// TestStoreBackedHomeEqualsReconstructedSynthHome: for a campaign
// persisted unaltered, everything the per-home build produces from the
// store equals — exactly, not within a tolerance — what it produces from
// the synthesizer's traffic once the differences reconstructedView
// enumerates are applied.
func TestStoreBackedHomeEqualsReconstructedSynthHome(t *testing.T) {
	stored, _ := storeEnv(t, nil)
	mem, err := NewEnv(WithHomes(storeFixture.Homes), WithWeeks(storeFixture.Weeks), WithSeed(storeFixture.Seed))
	if err != nil {
		t.Fatal(err)
	}
	dep := synth.NewDeployment(storeFixture)
	for i := 0; i < storeFixture.Homes; i++ {
		want := mem.buildHome(i, reconstructedView(dep.Home(i)))
		got := stored.home(i)

		seriesEqual(t, "raw", whole(got.raw), whole(want.raw))
		seriesEqual(t, "active", whole(got.active), whole(want.active))
		if len(got.devices) != len(want.devices) {
			t.Fatalf("home %d: %d devices from the store, %d reconstructed", i, len(got.devices), len(want.devices))
		}
		for k := range want.devices {
			if got.devices[k].dev != want.devices[k].dev {
				t.Errorf("home %d device %d: %+v, want %+v", i, k, got.devices[k].dev, want.devices[k].dev)
			}
			seriesEqual(t, "device overall", whole(got.devices[k].overall), whole(want.devices[k].overall))
		}
		if len(got.dom.All) == 0 || len(got.dom.All) != len(want.dom.All) || len(got.dom.Dominants) != len(want.dom.Dominants) {
			t.Fatalf("home %d: dominance over %d devices (%d dominant), want %d (%d)", i,
				len(got.dom.All), len(got.dom.Dominants), len(want.dom.All), len(want.dom.Dominants))
		}
		for k, w := range want.dom.All {
			g := got.dom.All[k]
			if g.Device != w.Device || math.Float64bits(g.Similarity) != math.Float64bits(w.Similarity) ||
				g.Euclidean != w.Euclidean || g.Traffic != w.Traffic {
				t.Errorf("home %d score %d: %+v, want %+v", i, k, g, w)
			}
		}
		if got.inOut != want.inOut || got.devCount != want.devCount {
			t.Errorf("home %d: in/out %+v devcount %+v, want %+v %+v", i, got.inOut, got.devCount, want.inOut, want.devCount)
		}
		if !reflect.DeepEqual(got.taus, want.taus) {
			t.Errorf("home %d: Fig. 4 thresholds\n got %+v\nwant %+v", i, got.taus, want.taus)
		}
		if got.weeklyCoverageMain != want.weeklyCoverageMain || got.weeklyCoverageMotif != want.weeklyCoverageMotif ||
			got.dailyCoverageMain != want.dailyCoverageMain {
			t.Errorf("home %d: coverage flags differ", i)
		}
	}
}

// TestHomeBuildKeepsNoDirectionSeries is the memory contract of the
// per-home build: what stays reachable afterwards is the raw and active
// gateway columns plus one overall column per device, four bytes a
// minute each. Holding the view's per-direction series as well, or the
// kept series at float64, would be far over the budget.
func TestHomeBuildKeepsNoDirectionSeries(t *testing.T) {
	e, err := NewEnv(WithHomes(1), WithWeeks(4))
	if err != nil {
		t.Fatal(err)
	}
	// Two collections on each side: sync.Pool scratch of the rank and
	// whisker kernels survives one GC in the pool's victim cache.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	gc := e.home(0)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)

	if len(gc.devices) < 3 {
		t.Fatalf("fixture home has %d devices; the bound below would not tell 1 series per device from 3", len(gc.devices))
	}
	documented := int64(2+len(gc.devices)) * int64(e.Campaign().Minutes()) * 4
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	// With the pools drained the heap grows ~1.0x the documented size, run
	// to run and under -race alike; 5% slack still fails float64 columns
	// (~2x) or a retained view (~5x).
	if slack := documented / 20; grew > documented+slack {
		t.Errorf("building home 0 left %d KiB reachable; raw + active + %d device overalls are %d KiB",
			grew>>10, len(gc.devices), documented>>10)
	}
	runtime.KeepAlive(e)
}

// TestColumnRoundTrip: a column gives back every minute of the series it
// was made from bit for bit, NaN where a minute is missing, compact when
// every value is a whole byte count below 2^32-1 and wide otherwise.
func TestColumnRoundTrip(t *testing.T) {
	h := synth.NewDeployment(synth.Config{Homes: 1, Weeks: 1, Seed: 3}).Home(0)
	from := h.Overall().Start
	check := func(what string, s *timeseries.Series, wantWide bool) {
		t.Helper()
		c := newColumn(s)
		if (c.wide != nil) != wantWide || (c.vals == nil) != wantWide {
			t.Fatalf("%s: wide %v, want %v", what, c.wide != nil, wantWide)
		}
		got := c.series(from, from.Add(time.Duration(len(s.Values))*timeseries.Minute))
		if !got.Start.Equal(s.Start) || got.Step != s.Step || len(got.Values) != len(s.Values) {
			t.Fatalf("%s: %v/%v/%d points, want %v/%v/%d", what, got.Start, got.Step, len(got.Values), s.Start, s.Step, len(s.Values))
		}
		for m, w := range s.Values {
			if g := got.Values[m]; math.IsNaN(g) != math.IsNaN(w) || !math.IsNaN(w) && math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: minute %d = %v, want %v", what, m, g, w)
			}
		}
	}
	overall := h.Overall()
	check("gateway overall", overall, false)
	nan := 0
	for _, dt := range h.Traffic() {
		check(dt.Spec.Device.MAC+" in", dt.In, false)
		d := dataset.NewDeviceRecord(dt.Spec.Device, dt.In, dt.Out)
		check(dt.Spec.Device.MAC+" overall", d.Overall, false)
		nan += dt.In.Len() - dt.In.ObservedCount()
	}
	if nan == 0 {
		t.Fatal("fixture home has no missing minute")
	}

	base := overall.Clone()
	base.Values[0], base.Values[1], base.Values[2] = 0, math.MaxUint32-1, math.NaN()
	check("0 and 2^32-2", base, false)
	for _, v := range []float64{math.MaxUint32, 1 << 32, 0.5, -1, math.Copysign(0, -1), math.Inf(1)} {
		s := base.Clone()
		s.Values[len(s.Values)/2] = v
		check(fmt.Sprint(v), s, true)
	}
}

// TestStoreBackedGigabitMinute: a store-backed device that moves 5e9 B in
// a minute, more than a uint32 holds, comes back unchanged through
// RawOverall and through its motif-window widening.
func TestStoreBackedGigabitMinute(t *testing.T) {
	dep := synth.NewDeployment(storeFixture)
	cfg := dep.Config()
	dir := t.TempDir()
	s, err := store.Open(store.Config{Dir: dir, Start: cfg.Start, Step: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	em := gateway.NewEmitter(dep.Home(0).ID)
	for m, b := range []float64{0, 2.5e9, 1} {
		rep := em.Emit(cfg.Start.Add(time.Duration(m)*time.Minute), []gateway.DeviceMinute{{MAC: "02:00:00:00:00:01", InBytes: b, OutBytes: b}})
		if err := s.Append(rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(WithHomes(cfg.Homes), WithWeeks(cfg.Weeks), WithSeed(cfg.Seed), WithStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := env.Close(); err != nil {
			t.Error(err)
		}
	}()

	want := []float64{math.NaN(), 5e9, 2, math.NaN()}
	gc := env.home(0)
	if len(gc.devices) != 1 || gc.raw.wide == nil || gc.devices[0].overall.wide == nil {
		t.Fatalf("%d devices, raw wide %v; want the one stored device, its overall and raw wide", len(gc.devices), gc.raw.wide != nil)
	}
	for what, got := range map[string][]float64{
		"RawOverall":   env.RawOverall(0, 1).Values[:len(want)],
		"motif window": gc.devices[0].overall.widen(nil, cfg.Start, cfg.Start.Add(timeseries.Day))[:len(want)],
	} {
		for m, w := range want {
			if g := got[m]; math.IsNaN(g) != math.IsNaN(w) || !math.IsNaN(w) && g != w {
				t.Errorf("%s: minute %d = %v, want %v", what, m, g, w)
			}
		}
	}
}
