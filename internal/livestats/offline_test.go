package livestats

import (
	"context"
	"math"
	"testing"
	"time"

	"homesight/internal/corrsim"
	"homesight/internal/dataset"
	"homesight/internal/devices"
	"homesight/internal/dominance"
	"homesight/internal/store"
	"homesight/internal/timeseries"
)

// TestProfileActivity holds each Profile row's duty cycle and burstiness
// (and the Score's traffic) to hand-computed values over one table whose
// devices each carry one shape; NaN minutes are unobserved.
func TestProfileActivity(t *testing.T) {
	nan := math.NaN()
	start := time.Date(2014, 3, 17, 0, 0, 0, 0, time.UTC)
	// The gaps device observes 4, 0, 2, 0: μ = 1.5, σ² = 11/4.
	sigma := math.Sqrt(11.0 / 4)
	cases := []struct {
		name                 string
		vals                 []float64
		duty, burst, traffic float64
	}{
		{"all NaN", []float64{nan, nan, nan, nan, nan, nan}, 0, 0, 0},
		{"all zero", []float64{0, 0, 0, 0, 0, 0}, 0, 0, 0},
		{"constant", []float64{5, 5, 5, 5, 5, 5}, 1, -1, 30},
		{"one minute", []float64{nan, nan, 7, nan, nan, nan}, 1, -1, 7},
		{"one zero minute", []float64{nan, 0, nan, nan, nan, nan}, 0, 0, 0},
		{"gaps", []float64{nan, 4, 0, nan, 2, 0}, 0.5, (sigma - 1.5) / (sigma + 1.5), 6},
	}
	g := &dataset.Gateway{ID: "gw", Overall: timeseries.New(start, time.Minute, make([]float64, 6))}
	for k, c := range cases {
		// All traffic is incoming; outgoing is observed as 0 exactly where
		// incoming is, so the device overall is vals.
		out := make([]float64, len(c.vals))
		for m, v := range c.vals {
			if math.IsNaN(v) {
				out[m] = nan
			}
		}
		d := dataset.DeviceRecord{
			Device: devices.Device{MAC: string(rune('a' + k))},
			In:     timeseries.New(start, time.Minute, c.vals),
			Out:    timeseries.New(start, time.Minute, out),
		}
		g.Devices = append(g.Devices, d)
		var err error
		if g.Overall, err = g.Overall.Add(d.Overall()); err != nil {
			t.Fatal(err)
		}
	}
	p, err := Profile(g)
	if err != nil {
		t.Fatal(err)
	}
	if p.Minutes != 6 || len(p.Devices) != len(cases) {
		t.Fatalf("%d minutes, %d rows; want 6, %d", p.Minutes, len(p.Devices), len(cases))
	}
	for k, c := range cases {
		r := p.Devices[k]
		if r.Device.MAC != g.Devices[k].Device.MAC {
			t.Fatalf("row %d is %s, table has %s: rows must keep table order", k, r.Device.MAC, g.Devices[k].Device.MAC)
		}
		if math.Abs(r.DutyCycle-c.duty) > 1e-12 || math.Abs(r.Burstiness-c.burst) > 1e-12 || math.Abs(r.Traffic-c.traffic) > 1e-12 {
			t.Errorf("%s: duty %v, burstiness %v, traffic %v; want %v, %v, %v",
				c.name, r.DutyCycle, r.Burstiness, r.Traffic, c.duty, c.burst, c.traffic)
		}
	}
}

// TestOfflineOnlyAtThePapersParameters: Offline computes at
// corrsim.Measure{} and dominance.DefaultPhi and refuses any other
// measure or φ rather than answer at the paper's.
func TestOfflineOnlyAtThePapersParameters(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir(), Start: time.Date(2014, 3, 17, 0, 0, 0, 0, time.UTC)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st.Close(); err != nil {
			t.Error(err)
		}
	}()
	ctx := context.Background()
	if _, err := Offline(ctx, st, "gw", corrsim.Measure{}, dominance.DefaultPhi); err != nil {
		t.Fatalf("paper's parameters: %v", err)
	}
	for _, c := range []struct {
		m   corrsim.Measure
		phi float64
	}{
		{corrsim.Measure{}, dominance.StrictPhi},
		{corrsim.Measure{}, 0},
		{corrsim.Default, dominance.DefaultPhi},
		{corrsim.Measure{Use: corrsim.UsePearson}, dominance.DefaultPhi},
	} {
		if _, err := Offline(ctx, st, "gw", c.m, c.phi); err == nil {
			t.Errorf("Offline(%+v, φ %v) answered; want an error", c.m, c.phi)
		}
	}
}
