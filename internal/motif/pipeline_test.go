package motif_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"homesight/internal/aggregate"
	"homesight/internal/background"
	"homesight/internal/dominance"
	"homesight/internal/motif"
	"homesight/internal/timeseries"
)

// The tests here run the definitions at the paper's parameters, as the
// package Default values carry them: the best window mappings of Sec. 7.1
// and a small background → dominance → motif pipeline.

var mon = time.Date(2014, 3, 17, 0, 0, 0, 0, time.UTC)

func TestInstancesUseBestSpecs(t *testing.T) {
	// 2 weeks of per-minute data.
	n := 15 * 24 * 60
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i % 1440)
	}
	s := timeseries.New(mon, time.Minute, vals)
	weekly, err := motif.Instances("gw0", s, aggregate.BestWeekly)
	if err != nil {
		t.Fatal(err)
	}
	if len(weekly) != 2 {
		t.Fatalf("weekly instances = %d, want 2", len(weekly))
	}
	if got := len(weekly[0].Window.Values); got != 21 {
		t.Errorf("weekly points = %d, want 21", got)
	}
	if weekly[0].Window.Start.Hour() != 2 {
		t.Errorf("weekly phase hour = %d, want 2", weekly[0].Window.Start.Hour())
	}
	daily, err := motif.Instances("gw0", s, aggregate.BestDaily)
	if err != nil {
		t.Fatal(err)
	}
	if len(daily) != 15 {
		t.Fatalf("daily instances = %d, want 15", len(daily))
	}
	if got := len(daily[0].Window.Values); got != 8 {
		t.Errorf("daily points = %d, want 8", got)
	}
}

func TestInstancesSkipUnobserved(t *testing.T) {
	n := 2 * 24 * 60
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.NaN()
	}
	for i := 0; i < 1440; i++ {
		vals[i] = 1 // only day 0 observed
	}
	s := timeseries.New(mon, time.Minute, vals)
	daily, err := motif.Instances("gw0", s, aggregate.BestDaily)
	if err != nil {
		t.Fatal(err)
	}
	if len(daily) != 1 {
		t.Errorf("observed instances = %d, want 1", len(daily))
	}
}

func TestEndToEndSmallPipeline(t *testing.T) {
	// Minimal full-stack run on handcrafted data: background removal →
	// dominance → daily motifs.
	rng := rand.New(rand.NewSource(2))
	days := 6
	n := days * 24 * 60
	devA := make([]float64, n) // evening streamer, drives the home
	devB := make([]float64, n) // light chatter only
	for m := 0; m < n; m++ {
		hour := (m % 1440) / 60
		devA[m] = 200 * rng.Float64()
		if hour >= 20 && hour < 23 {
			devA[m] += 3e6
		}
		devB[m] = 150 * rng.Float64()
	}
	gw := make([]float64, n)
	for m := range gw {
		gw[m] = devA[m] + devB[m]
	}
	sGW := timeseries.New(mon, time.Minute, gw)
	sA := timeseries.New(mon, time.Minute, devA)
	sB := timeseries.New(mon, time.Minute, devB)

	// Background removal keeps the evening bursts.
	tau := background.EstimateThreshold(sA, sB).Tau()
	if tau <= 0 || tau > 5000 {
		t.Fatalf("tau = %g", tau)
	}
	active := sGW.Threshold(tau)
	if active.Total() >= sGW.Total() {
		t.Error("background removal should reduce total")
	}

	// Dominance: device A must dominate.
	res := dominance.Default.Detect(sGW, []dominance.DeviceSeries{
		{Series: sA}, {Series: sB},
	})
	if len(res.Dominants) != 1 {
		t.Fatalf("dominants = %d, want 1", len(res.Dominants))
	}

	// Daily motifs: six near-identical evening days → one motif.
	insts, err := motif.Instances("gw0", active, aggregate.BestDaily)
	if err != nil {
		t.Fatal(err)
	}
	motifs := motif.Default.Mine(insts)
	if len(motifs) != 1 || motifs[0].Support() != days {
		t.Fatalf("motifs = %+v", motifs)
	}
}
