package query

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"testing"

	"homesight/internal/corrsim"
	"homesight/internal/dominance"
	"homesight/internal/experiments"
	"homesight/internal/livestats"
	"homesight/internal/store"
	"homesight/internal/synth"
)

// TestSummaryOfflineBatchAgree: over a stored campaign exactly WeeksMain
// weeks long, the three consumers of a stored home's Def. 1/Def. 4 pass —
// the /summary endpoint, livestats.Offline and the store-backed
// experiments Env — name the same dominants with the same similarities,
// bit for bit, for every home.
func TestSummaryOfflineBatchAgree(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	cfg := persistCampaign(t, dir, synth.Config{Homes: 3, Weeks: 4, Seed: 7})

	s, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	h := New(Config{Store: s}).Handler()
	summaries := make(map[string]Summary)
	offline := make(map[string]dominance.Result)
	for _, gw := range s.Gateways() {
		var sum Summary
		if err := json.Unmarshal(get(t, h, "/api/v1/homes/"+gw+"/summary", http.StatusOK).Data, &sum); err != nil {
			t.Fatal(err)
		}
		summaries[gw] = sum
		off, err := livestats.Offline(ctx, s, gw, corrsim.Measure{}, dominance.DefaultPhi)
		if err != nil {
			t.Fatal(err)
		}
		offline[gw] = off.Dominance
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
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	dominants := 0
	for i := 0; i < cfg.Homes; i++ {
		if !env.StoreBacked(i) {
			t.Fatalf("home %d is not read from the store", i)
		}
		gw := env.Home(i).ID
		batch := env.Dominance(i)
		off, sum := offline[gw], summaries[gw]

		if len(off.All) != len(batch.All) || len(sum.Devices) != len(batch.All) || len(batch.All) == 0 {
			t.Fatalf("%s: %d devices offline, %d in /summary, %d in batch", gw, len(off.All), len(sum.Devices), len(batch.All))
		}
		bySim := make(map[string]float64, len(batch.All))
		for k, b := range batch.All {
			bySim[b.Device.MAC] = b.Similarity
			o := off.All[k]
			if o.Device.MAC != b.Device.MAC || !same(o.Similarity, b.Similarity) ||
				!same(o.Euclidean, b.Euclidean) || !same(o.Traffic, b.Traffic) {
				t.Errorf("%s rank %d: offline %s %v/%v/%v, batch %s %v/%v/%v", gw, k,
					o.Device.MAC, o.Similarity, o.Euclidean, o.Traffic, b.Device.MAC, b.Similarity, b.Euclidean, b.Traffic)
			}
		}
		for _, d := range sum.Devices {
			if b, ok := bySim[d.MAC]; !ok || !same(d.Similarity, b) {
				t.Errorf("%s %s: /summary similarity %v, batch %v (present %v)", gw, d.MAC, d.Similarity, b, ok)
			}
		}
		if len(off.Dominants) != len(batch.Dominants) || len(sum.Dominants) != len(batch.Dominants) {
			t.Fatalf("%s: %d dominants offline, %d in /summary, %d in batch", gw, len(off.Dominants), len(sum.Dominants), len(batch.Dominants))
		}
		dominants += len(batch.Dominants)
		for k, b := range batch.Dominants {
			if off.Dominants[k].Device.MAC != b.Device.MAC || sum.Dominants[k] != b.Device.MAC {
				t.Errorf("%s dominant %d: offline %s, /summary %s, batch %s", gw, k, off.Dominants[k].Device.MAC, sum.Dominants[k], b.Device.MAC)
			}
		}
	}
	if dominants == 0 {
		t.Error("no home has a dominant device: the comparison saw no Def. 4 verdict")
	}
}

// TestSummaryLiveAgree: one API serving a stored campaign through both
// the store and a tracker rebuilt from it, with a rank reservoir as long
// as the campaign (exact mode), gives every home the same dominants in
// the same order on /summary and /live, the same similarity per device
// to float tolerance, and bit-equal traffic.
func TestSummaryLiveAgree(t *testing.T) {
	dir := t.TempDir()
	cfg := persistCampaign(t, dir, synth.Config{Homes: 3, Weeks: 1, Seed: 7})
	s, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Error(err)
		}
	}()
	tr := livestats.NewTracker(livestats.Config{Start: s.Start(), Step: s.Step(), RankCap: cfg.Minutes()})
	if _, err := tr.Rebuild(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	h := New(Config{Store: s, Live: tr}).Handler()
	dominants := 0
	for _, gw := range s.Gateways() {
		var sum Summary
		if err := json.Unmarshal(get(t, h, "/api/v1/homes/"+gw+"/summary", http.StatusOK).Data, &sum); err != nil {
			t.Fatal(err)
		}
		var live LiveData
		if err := json.Unmarshal(get(t, h, "/api/v1/homes/"+gw+"/live", http.StatusOK).Data, &live); err != nil {
			t.Fatal(err)
		}
		if len(sum.Dominants) != len(live.Dominants) {
			t.Fatalf("%s: /summary dominants %v, /live %v", gw, sum.Dominants, live.Dominants)
		}
		for k := range sum.Dominants {
			if sum.Dominants[k] != live.Dominants[k] {
				t.Errorf("%s dominant %d: /summary %s, /live %s", gw, k, sum.Dominants[k], live.Dominants[k])
			}
		}
		dominants += len(sum.Dominants)
		byMAC := make(map[string]LiveDevice, len(live.Devices))
		for _, d := range live.Devices {
			if d.RankSampled {
				t.Fatalf("%s %s: rank reservoir sampled; the comparison needs exact mode", gw, d.MAC)
			}
			byMAC[d.MAC] = d
		}
		if len(byMAC) != len(sum.Devices) || len(sum.Devices) == 0 {
			t.Fatalf("%s: %d devices on /summary, %d on /live", gw, len(sum.Devices), len(byMAC))
		}
		for _, d := range sum.Devices {
			l, ok := byMAC[d.MAC]
			if !ok {
				t.Fatalf("%s %s: on /summary, not on /live", gw, d.MAC)
			}
			if math.Abs(d.Similarity-l.Similarity) > 1e-9 {
				t.Errorf("%s %s: similarity /summary %v, /live %v", gw, d.MAC, d.Similarity, l.Similarity)
			}
			if math.Float64bits(d.Traffic) != math.Float64bits(l.Traffic) {
				t.Errorf("%s %s: traffic /summary %v, /live %v", gw, d.MAC, d.Traffic, l.Traffic)
			}
		}
	}
	if dominants == 0 {
		t.Error("no home has a dominant device: the comparison saw no Def. 4 verdict")
	}
}
