package query

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"slices"
	"testing"

	"homesight/internal/corrsim"
	"homesight/internal/dominance"
	"homesight/internal/experiments"
	"homesight/internal/livestats"
	"homesight/internal/store"
	"homesight/internal/synth"
)

// homeView is what one consumer of a stored home says about it: the
// φ-dominant MACs in order and, per device MAC, the Def. 1 similarity,
// the Sec. 6.2 Euclidean distance and the total traffic. ranked is the
// device order by descending similarity, nil where the consumer serves
// table order; euc is nil where it serves no distance.
type homeView struct {
	dominants    []string
	ranked       []string
	sim, traffic map[string]float64
	euc          map[string]float64
}

func viewOf(res dominance.Result) homeView {
	v := homeView{sim: map[string]float64{}, traffic: map[string]float64{}, euc: map[string]float64{}}
	for _, sc := range res.Dominants {
		v.dominants = append(v.dominants, sc.Device.MAC)
	}
	for _, sc := range res.All {
		v.ranked = append(v.ranked, sc.Device.MAC)
		v.sim[sc.Device.MAC], v.euc[sc.Device.MAC], v.traffic[sc.Device.MAC] = sc.Similarity, sc.Euclidean, sc.Traffic
	}
	return v
}

// agreementViews is what each consumer of one stored campaign says
// about every home, keyed by consumer and then by gateway: the /summary
// endpoint, livestats.Offline, the store-backed experiments Env and
// /live, served by a tracker rebuilt from the same store with a rank
// reservoir as long as the campaign (exact mode).
type agreementViews struct {
	gws                           []string
	summary, offline, batch, live map[string]homeView
}

// collectViews persists a campaign of cfg, which must be as long as the
// experiments' main window, and reads every home from each consumer.
func collectViews(t *testing.T, cfg synth.Config) agreementViews {
	t.Helper()
	ctx := context.Background()
	dir := t.TempDir()
	cfg = persistCampaign(t, dir, cfg)

	s, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tr := livestats.NewTracker(livestats.Config{Start: s.Start(), Step: s.Step(), RankCap: cfg.Minutes()})
	if _, err := tr.Rebuild(ctx, s); err != nil {
		t.Fatal(err)
	}
	h := New(Config{Store: s, Live: tr}).Handler()
	a := agreementViews{
		gws:     s.Gateways(),
		summary: make(map[string]homeView),
		offline: make(map[string]homeView),
		batch:   make(map[string]homeView),
		live:    make(map[string]homeView),
	}
	for _, gw := range a.gws {
		var sum Summary
		if err := json.Unmarshal(get(t, h, "/api/v1/homes/"+gw+"/summary", http.StatusOK).Data, &sum); err != nil {
			t.Fatal(err)
		}
		v := homeView{dominants: sum.Dominants, sim: map[string]float64{}, traffic: map[string]float64{}}
		for _, d := range sum.Devices {
			v.sim[d.MAC], v.traffic[d.MAC] = d.Similarity, d.Traffic
		}
		a.summary[gw] = v

		off, err := livestats.Offline(ctx, s, gw, corrsim.Measure{}, dominance.DefaultPhi)
		if err != nil {
			t.Fatal(err)
		}
		a.offline[gw] = viewOf(off.Dominance)

		var ld LiveData
		if err := json.Unmarshal(get(t, h, "/api/v1/homes/"+gw+"/live", http.StatusOK).Data, &ld); err != nil {
			t.Fatal(err)
		}
		v = homeView{dominants: ld.Dominants, sim: map[string]float64{}, traffic: map[string]float64{}}
		for _, d := range ld.Devices {
			if d.RankSampled {
				t.Fatalf("%s %s: rank reservoir sampled; the comparison needs exact mode", gw, d.MAC)
			}
			v.ranked = append(v.ranked, d.MAC)
			v.sim[d.MAC], v.traffic[d.MAC] = d.Similarity, d.Traffic
		}
		a.live[gw] = v
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	env, err := experiments.NewEnv(experiments.WithHomes(cfg.Homes), experiments.WithWeeks(cfg.Weeks),
		experiments.WithSeed(cfg.Seed), experiments.WithStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := env.Close(); err != nil {
			t.Error(err)
		}
	}()
	if env.WeeksMain != cfg.Weeks {
		t.Fatalf("campaign of %d weeks, WeeksMain %d: the windows would differ", cfg.Weeks, env.WeeksMain)
	}
	for i := 0; i < cfg.Homes; i++ {
		if !env.StoreBacked(i) {
			t.Fatalf("home %d is not read from the store", i)
		}
		a.batch[env.Home(i).ID] = viewOf(env.Dominance(i))
	}
	return a
}

// agreementLeg is one consumer compared with /summary; simTol 0 asks
// for bit-equal similarities.
type agreementLeg struct {
	name   string
	simTol float64
	views  map[string]homeView
}

// checkAgreement asserts that every leg agrees with /summary for every
// home: the same dominants in the same order, the same devices,
// bit-equal traffic and the similarity within the leg's tolerance. A leg
// that ranks the devices ranks them in livestats.Offline's order, and
// its Euclidean distances are Offline's, bit for bit.
func checkAgreement(t *testing.T, a agreementViews, legs ...agreementLeg) {
	t.Helper()
	same := func(a, b, tol float64) bool {
		if tol == 0 {
			return math.Float64bits(a) == math.Float64bits(b)
		}
		return math.Abs(a-b) <= tol
	}
	dominants := 0
	for _, gw := range a.gws {
		want, ref := a.summary[gw], a.offline[gw]
		if len(want.sim) == 0 {
			t.Fatalf("%s: no device on /summary", gw)
		}
		dominants += len(want.dominants)
		for _, leg := range legs {
			got, ok := leg.views[gw]
			if !ok {
				t.Fatalf("%s: not served by %s", gw, leg.name)
			}
			if !slices.Equal(got.dominants, want.dominants) {
				t.Errorf("%s: dominants %s %v, /summary %v", gw, leg.name, got.dominants, want.dominants)
			}
			if len(got.sim) != len(want.sim) {
				t.Fatalf("%s: %d devices on %s, %d on /summary", gw, len(got.sim), leg.name, len(want.sim))
			}
			for mac, w := range want.sim {
				g, ok := got.sim[mac]
				if !ok {
					t.Fatalf("%s %s: on /summary, not on %s", gw, mac, leg.name)
				}
				if !same(g, w, leg.simTol) {
					t.Errorf("%s %s: similarity %s %v, /summary %v", gw, mac, leg.name, g, w)
				}
				if g, w := got.traffic[mac], want.traffic[mac]; !same(g, w, 0) {
					t.Errorf("%s %s: traffic %s %v, /summary %v", gw, mac, leg.name, g, w)
				}
			}
			if !slices.Equal(got.ranked, ref.ranked) {
				t.Errorf("%s: device order %s %v, livestats.Offline %v", gw, leg.name, got.ranked, ref.ranked)
			}
			for mac, e := range got.euc {
				if !same(e, ref.euc[mac], 0) {
					t.Errorf("%s %s: euclidean %s %v, livestats.Offline %v", gw, mac, leg.name, e, ref.euc[mac])
				}
			}
		}
	}
	if dominants == 0 {
		t.Error("no home has a dominant device: the comparison saw no Def. 4 verdict")
	}
}

// TestSummaryOfflineBatchAgree: over a stored campaign exactly WeeksMain
// weeks long, livestats.Offline and the store-backed experiments Env
// agree with the /summary endpoint for every home, bit for bit: the
// same dominants in the same order, the same devices, traffic and
// similarities, the devices ranked in Offline's order and the batch
// Euclidean distances Offline's.
func TestSummaryOfflineBatchAgree(t *testing.T) {
	a := collectViews(t, synth.Config{Homes: 3, Weeks: 4, Seed: 7})
	checkAgreement(t, a,
		agreementLeg{"livestats.Offline", 0, a.offline},
		agreementLeg{"experiments.Env.Dominance", 0, a.batch})
}

// TestSummaryLiveAgree: one API serving a stored campaign through both
// the store and a tracker rebuilt from it, in exact mode, gives every
// home the same dominants in the same order on /summary and /live, the
// same devices, bit-equal traffic, the similarity per device within
// 1e-9, and the devices ranked in livestats.Offline's order.
func TestSummaryLiveAgree(t *testing.T) {
	a := collectViews(t, synth.Config{Homes: 3, Weeks: 1, Seed: 7})
	checkAgreement(t, a, agreementLeg{"/live", 1e-9, a.live})
}
