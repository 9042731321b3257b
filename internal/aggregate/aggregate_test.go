package aggregate

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"homesight/internal/synth"
	"homesight/internal/timeseries"
)

var mon = time.Date(2014, 3, 17, 0, 0, 0, 0, time.UTC)

// regularHome builds a per-minute series of `weeks` weeks repeating a daily
// evening bump, with multiplicative noise and minute-level burstiness. This
// is the kind of gateway whose regularity only becomes visible after
// aggregation — exactly the paper's premise.
func regularHome(weeks int, noise float64, seed int64) *timeseries.Series {
	rng := rand.New(rand.NewSource(seed))
	n := weeks * 7 * 24 * 60
	vals := make([]float64, n)
	for m := 0; m < n; m++ {
		hour := float64(m%(24*60)) / 60
		base := 200.0 // background
		// Evening bump 19:00-23:00.
		bump := math.Exp(-math.Pow((hour-21)/1.5, 2))
		dayScale := math.Exp(noise * rng.NormFloat64())
		active := 0.0
		if rng.Float64() < 0.25*bump*dayScale {
			active = 5e5 * rng.ExpFloat64() // bursty minutes inside the bump
		}
		vals[m] = base*rng.Float64() + active
	}
	return timeseries.New(mon, time.Minute, vals)
}

// chaoticHome has no repeating structure at all.
func chaoticHome(weeks int, seed int64) *timeseries.Series {
	rng := rand.New(rand.NewSource(seed))
	n := weeks * 7 * 24 * 60
	vals := make([]float64, n)
	for m := range vals {
		if rng.Float64() < 0.01 {
			vals[m] = 1e6 * rng.ExpFloat64()
		} else {
			vals[m] = 100 * rng.Float64()
		}
	}
	return timeseries.New(mon, time.Minute, vals)
}

func TestWeeklyGatewayAggregationHelps(t *testing.T) {
	// 5 raw weeks leave 4 complete 2am-phase-shifted weeks.
	s := regularHome(5, 0.05, 1)
	fine, err := Default.WeeklyGateway(s, time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := Default.WeeklyGateway(s, 8*time.Hour, 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if coarse.AvgCorr <= fine.AvgCorr {
		t.Errorf("8h aggregation (%.3f) should beat 1h (%.3f) on a regular home",
			coarse.AvgCorr, fine.AvgCorr)
	}
	if coarse.Pairs != 6 { // C(4,2)
		t.Errorf("pairs = %d, want 6", coarse.Pairs)
	}
}

func TestWeeklyGatewayChaoticStaysLow(t *testing.T) {
	s := chaoticHome(4, 2)
	g, err := Default.WeeklyGateway(s, 8*time.Hour, 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if g.AvgCorr > 0.5 {
		t.Errorf("chaotic home week-week corr = %.3f, want low", g.AvgCorr)
	}
	if g.Stationary {
		t.Error("chaotic home must not be stationary")
	}
}

func TestDailyGatewayPairsAreSameWeekdayOnly(t *testing.T) {
	s := regularHome(4, 0.05, 3)
	g, err := Default.DailyGateway(s, 3*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// 28 days → 7 weekdays × C(4,2)=6 pairs = 42.
	if g.Pairs != 42 {
		t.Errorf("pairs = %d, want 42", g.Pairs)
	}
	if g.AvgCorr < 0.3 {
		t.Errorf("regular home same-day corr = %.3f, want decent", g.AvgCorr)
	}
}

func TestCurvePointsAndBest(t *testing.T) {
	cohort := []*timeseries.Series{
		regularHome(4, 0.04, 10),
		regularHome(4, 0.06, 11),
		chaoticHome(4, 12),
	}
	var pts []CurvePoint
	for _, bin := range []time.Duration{time.Hour, 3 * time.Hour, 8 * time.Hour} {
		p, err := Default.WeeklyPoint(cohort, bin, 2*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		if p.Gateways != 3 {
			t.Errorf("bin %v: gateways = %d, want 3", bin, p.Gateways)
		}
		pts = append(pts, p)
	}
	best := Best(pts, false)
	if best.Bin == time.Hour {
		t.Errorf("1h should not win the weekly curve (best=%v)", best.Bin)
	}
	// Curve should rise with aggregation for this cohort.
	if pts[0].AvgCorrAll > pts[2].AvgCorrAll {
		t.Errorf("curve not rising: %v", pts)
	}
}

func TestDailyPointStationaryDist(t *testing.T) {
	cohort := []*timeseries.Series{
		regularHome(4, 0.02, 20),
		chaoticHome(4, 21),
	}
	p, err := Default.DailyPoint(cohort, 3*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if p.Gateways != 2 {
		t.Errorf("gateways = %d", p.Gateways)
	}
	total := 0
	for _, c := range p.StationaryDayDist {
		total += c
	}
	if total != p.StationaryGateways {
		t.Errorf("day-dist total %d != stationary gateways %d", total, p.StationaryGateways)
	}
}

func TestBestUsesRequestedCurve(t *testing.T) {
	pts := []CurvePoint{
		{Bin: time.Hour, AvgCorrAll: 0.5, AvgCorrStationary: 0.2},
		{Bin: 8 * time.Hour, AvgCorrAll: 0.3, AvgCorrStationary: 0.9},
	}
	if Best(pts, false).Bin != time.Hour {
		t.Error("all-gateway best should pick 1h")
	}
	if Best(pts, true).Bin != 8*time.Hour {
		t.Error("stationary best should pick 8h")
	}
}

func TestCandidateBinsAreValid(t *testing.T) {
	s := timeseries.New(mon, time.Minute, make([]float64, 7*24*60))
	for _, bin := range WeeklyBins {
		if _, err := timeseries.WeeklySpec(bin, 0).Windows(s); err != nil {
			t.Errorf("weekly bin %v invalid: %v", bin, err)
		}
	}
	for _, bin := range DailyBins {
		if _, err := timeseries.DailySpec(bin).Windows(s); err != nil {
			t.Errorf("daily bin %v invalid: %v", bin, err)
		}
	}
	if BestWeekly.PointsPerWindow() != 21 || BestDaily.PointsPerWindow() != 8 {
		t.Error("paper's best specs should give 21 and 8 points per window")
	}
}

// TestDailyGatewayBitDeterministic pins DailyGateway's AvgCorr to one bit
// pattern per (home, bin): the same-weekday similarities must be summed in
// weekday order, not in the order a map happens to yield the weekdays (the
// 3-decimal rendering of Fig. 8 hides the difference; the bits do not).
func TestDailyGatewayBitDeterministic(t *testing.T) {
	dep := synth.NewDeployment(synth.Config{Seed: 20140317, Homes: 4, Weeks: 3})
	for h := 0; h < 4; h++ {
		s := dep.Home(h).Overall()
		for _, bin := range DailyBins {
			seen := map[uint64]bool{}
			for call := 0; call < 60; call++ {
				g, err := Default.DailyGateway(s, bin)
				if err != nil {
					t.Fatal(err)
				}
				seen[math.Float64bits(g.AvgCorr)] = true
			}
			if len(seen) != 1 {
				t.Errorf("home %d, %v bins: %d distinct AvgCorr bit patterns over 60 calls", h, bin, len(seen))
			}
		}
	}
}
