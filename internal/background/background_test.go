package background

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"homesight/internal/synth"
	"homesight/internal/timeseries"
)

var start = time.Date(2014, 3, 17, 0, 0, 0, 0, time.UTC)

func TestGroupOf(t *testing.T) {
	cases := []struct {
		tau  float64
		want Group
	}{
		{0, Small}, {5000, Small}, {5001, Medium}, {40000, Medium}, {40001, Large}, {1e6, Large},
	}
	for _, tc := range cases {
		if got := GroupOf(tc.tau); got != tc.want {
			t.Errorf("GroupOf(%g) = %q, want %q", tc.tau, got, tc.want)
		}
	}
}

func TestEstimateTauSeparatesBackgroundFromBursts(t *testing.T) {
	// 95% background around 800 B/min, 5% active bursts of megabytes.
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 5000)
	for i := range vals {
		if rng.Float64() < 0.05 {
			vals[i] = 1e6 + rng.Float64()*1e7
		} else {
			vals[i] = 800 * math.Exp(0.5*rng.NormFloat64())
		}
	}
	tau := EstimateTau(vals)
	if tau < 1000 || tau > 20000 {
		t.Errorf("tau = %g, want a value separating ~800 background from ~1e6 bursts", tau)
	}
	// All bursts must sit above tau.
	for _, v := range vals {
		if v >= 1e6 && v < tau {
			t.Fatalf("burst %g below tau %g", v, tau)
		}
	}
}

func TestEstimateTauEdgeCases(t *testing.T) {
	if got := EstimateTau(nil); got != 0 {
		t.Errorf("empty tau = %g", got)
	}
	nan := math.NaN()
	if got := EstimateTau([]float64{nan, nan}); got != 0 {
		t.Errorf("all-NaN tau = %g", got)
	}
	// Constant traffic: whisker equals the constant.
	if got := EstimateTau([]float64{500, 500, 500}); got != 500 {
		t.Errorf("constant tau = %g, want 500", got)
	}
}

func TestCapTau(t *testing.T) {
	if CapTau(1200) != 1200 || CapTau(99999) != CapBytes {
		t.Error("CapTau must cap at 5000 only from above")
	}
}

func TestThresholdTau(t *testing.T) {
	th := Threshold{TauIn: 3000, TauOut: 800}
	if th.Tau() != 3000 {
		t.Errorf("Tau = %g, want max direction", th.Tau())
	}
	th2 := Threshold{TauIn: 90000, TauOut: 100}
	if th2.Tau() != CapBytes {
		t.Errorf("Tau = %g, want capped at %d", th2.Tau(), CapBytes)
	}
}

func TestActiveSeries(t *testing.T) {
	nan := math.NaN()
	s := timeseries.New(start, time.Minute, []float64{100, 6000, nan, 4999})
	a := s.Threshold(5000) // background removal: below τ is zero
	if a.Values[0] != 0 || a.Values[1] != 6000 || a.Values[3] != 0 {
		t.Errorf("active = %v", a.Values)
	}
	if !math.IsNaN(a.Values[2]) {
		t.Error("missing observations must stay missing")
	}
}

func TestActiveFraction(t *testing.T) {
	nan := math.NaN()
	s := timeseries.New(start, time.Minute, []float64{0, 10000, 20000, nan})
	if got := ActiveFraction(s, 5000); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("active fraction = %g, want 2/3", got)
	}
	empty := timeseries.New(start, time.Minute, []float64{nan})
	if ActiveFraction(empty, 5000) != 0 {
		t.Error("empty series fraction should be 0")
	}
}

func TestSyntheticPopulationTauShape(t *testing.T) {
	// Fig. 4 shape on synthetic devices: the majority of devices must have
	// τ below 5000 B/min and only a small tail above 40000.
	cfg := synth.DefaultConfig()
	cfg.Homes = 40
	cfg.Weeks = 2
	d := synth.NewDeployment(cfg)
	small, medium, large, total := 0, 0, 0, 0
	for i := 0; i < d.NumHomes(); i++ {
		for _, dt := range d.Home(i).Traffic() {
			if dt.In.ObservedCount() == 0 {
				continue
			}
			th := EstimateThreshold(dt.In, dt.Out)
			total++
			switch GroupOf(math.Max(th.TauIn, th.TauOut)) {
			case Small:
				small++
			case Medium:
				medium++
			case Large:
				large++
			}
		}
	}
	if total == 0 {
		t.Fatal("no devices")
	}
	if frac := float64(small) / float64(total); frac < 0.55 {
		t.Errorf("small-τ share = %.2f (%d/%d), want the clear majority", frac, small, total)
	}
	if frac := float64(large) / float64(total); frac > 0.10 {
		t.Errorf("large-τ share = %.2f (%d/%d), want a thin tail", frac, large, total)
	}
	if large == 0 {
		t.Error("expected at least one large-τ device in 40 homes")
	}
}
