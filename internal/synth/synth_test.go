package synth

import (
	"math"
	"testing"

	"homesight/internal/devices"
	"homesight/internal/stats"
	"homesight/internal/stats/corr"
	"time"
)

// smallCfg keeps unit tests fast: 30 homes, 2 weeks.
func smallCfg() Config {
	c := DefaultConfig()
	c.Homes = 30
	c.Weeks = 2
	return c
}

func TestDeterminism(t *testing.T) {
	d1 := NewDeployment(smallCfg())
	d2 := NewDeployment(smallCfg())
	h1 := d1.Home(7)
	h2 := d2.Home(7)
	if h1.Archetype != h2.Archetype || h1.Residents != h2.Residents || len(h1.Devices) != len(h2.Devices) {
		t.Fatalf("inventory not deterministic: %+v vs %+v", h1, h2)
	}
	// Device identities must be reproducible too — analyses join device
	// sets from separate Home calls by MAC.
	for k := range h1.Devices {
		if h1.Devices[k].Device.MAC != h2.Devices[k].Device.MAC ||
			h1.Devices[k].Device.Name != h2.Devices[k].Device.Name {
			t.Fatalf("device %d identity not deterministic: %v vs %v",
				k, h1.Devices[k].Device, h2.Devices[k].Device)
		}
	}
	t1 := h1.Traffic()[0]
	t2 := h2.Traffic()[0]
	for m := 0; m < 500; m++ {
		a, b := t1.In.Values[m], t2.In.Values[m]
		if (math.IsNaN(a) != math.IsNaN(b)) || (!math.IsNaN(a) && a != b) {
			t.Fatalf("traffic not deterministic at minute %d: %g vs %g", m, a, b)
		}
	}
	// Different homes differ.
	h3 := d1.Home(8)
	if h3.ID == h1.ID {
		t.Error("distinct homes share an ID")
	}
}

func TestHomeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDeployment(smallCfg()).Home(99)
}

func TestConfigDefaults(t *testing.T) {
	d := NewDeployment(Config{})
	cfg := d.Config()
	if cfg.Homes != 196 || cfg.Weeks != 8 || cfg.Seed == 0 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if cfg.Start.Weekday() != time.Monday {
		t.Errorf("campaign must start on Monday, got %v", cfg.Start.Weekday())
	}
	if cfg.Minutes() != 8*7*24*60 {
		t.Errorf("minutes = %d", cfg.Minutes())
	}
}

func TestInventoryShape(t *testing.T) {
	d := NewDeployment(DefaultConfig())
	totalDevices := 0
	archetypes := map[Archetype]int{}
	for i := 0; i < d.NumHomes(); i++ {
		h := d.Home(i)
		if h.Residents < 1 || h.Residents > 5 {
			t.Fatalf("home %d residents = %d", i, h.Residents)
		}
		if len(h.Devices) == 0 {
			t.Fatalf("home %d has no devices", i)
		}
		primaries := 0
		for _, s := range h.Devices {
			if s.Primary {
				primaries++
			}
			if s.Device.MAC == "" || s.Class == "" {
				t.Fatalf("home %d device missing identity: %+v", i, s.Device)
			}
			if s.joinMin < 0 || s.leaveMin > d.Config().Minutes() || s.joinMin >= s.leaveMin {
				t.Fatalf("bad join window [%d, %d)", s.joinMin, s.leaveMin)
			}
		}
		if primaries != 1 {
			t.Fatalf("home %d has %d primary devices, want 1", i, primaries)
		}
		totalDevices += len(h.Devices)
		archetypes[h.Archetype]++
	}
	// Paper: 2147 devices over 196 homes ≈ 11/home. Accept 8-14.
	avg := float64(totalDevices) / float64(d.NumHomes())
	if avg < 8 || avg > 14 {
		t.Errorf("avg devices per home = %.1f, want ~11", avg)
	}
	// All archetypes should appear in a 196-home population.
	for _, aw := range archetypeWeights {
		if archetypes[aw.a] == 0 {
			t.Errorf("archetype %q never drawn", aw.a)
		}
	}
}

func TestUnlabeledShare(t *testing.T) {
	d := NewDeployment(DefaultConfig())
	unlabeled, total := 0, 0
	for i := 0; i < d.NumHomes(); i++ {
		for _, s := range d.Home(i).Devices {
			total++
			if s.Device.Inferred == devices.Unlabeled {
				unlabeled++
			}
		}
	}
	frac := float64(unlabeled) / float64(total)
	if frac < 0.15 || frac < 0.0 || frac > 0.35 {
		t.Errorf("unlabeled share = %.2f, want ~0.24", frac)
	}
}

func TestTrafficSeriesShape(t *testing.T) {
	d := NewDeployment(smallCfg())
	h := d.Home(3)
	n := d.Config().Minutes()
	for _, dt := range h.Traffic() {
		if dt.In.Len() != n || dt.Out.Len() != n {
			t.Fatalf("series length %d, want %d", dt.In.Len(), n)
		}
		for m := 0; m < n; m++ {
			iv, ov := dt.In.Values[m], dt.Out.Values[m]
			if math.IsNaN(iv) != math.IsNaN(ov) {
				t.Fatalf("in/out NaN mismatch at %d", m)
			}
			if !math.IsNaN(iv) && (iv < 0 || ov < 0) {
				t.Fatalf("negative traffic at %d: %g/%g", m, iv, ov)
			}
			if !math.IsNaN(iv) && (iv > fiberInCap || ov > fiberOutCap) {
				t.Fatalf("traffic beyond link capacity at %d: %g/%g", m, iv, ov)
			}
		}
	}
}

func TestOverallMatchesDeviceSum(t *testing.T) {
	d := NewDeployment(smallCfg())
	h := d.Home(0)
	overall := h.Overall()
	for _, m := range []int{0, 1000, 5000, 12345} {
		if math.IsNaN(overall.Values[m]) {
			continue
		}
		sum := 0.0
		for _, dt := range h.Traffic() {
			if v := dt.In.Values[m]; !math.IsNaN(v) {
				sum += v + dt.Out.Values[m]
			}
		}
		if math.Abs(sum-overall.Values[m]) > 1e-6 {
			t.Errorf("minute %d: overall %g != device sum %g", m, overall.Values[m], sum)
		}
	}
}

func TestInOutCorrelationStrong(t *testing.T) {
	// Paper Sec. 4.1: corr(in, out) mean 0.92, median 0.95. Check that the
	// gateway-level in/out correlation is strong for most homes.
	d := NewDeployment(smallCfg())
	strong := 0
	homes := 12
	for i := 0; i < homes; i++ {
		h := d.Home(i)
		n := d.Config().Minutes()
		in := make([]float64, n)
		out := make([]float64, n)
		for _, dt := range h.Traffic() {
			for m := 0; m < n; m++ {
				if v := dt.In.Values[m]; !math.IsNaN(v) {
					in[m] += v
					out[m] += dt.Out.Values[m]
				}
			}
		}
		r, err := corr.Pearson(in, out)
		if err != nil {
			t.Fatal(err)
		}
		if r.Coeff > 0.5 {
			strong++
		}
	}
	if strong < homes*3/4 {
		t.Errorf("only %d/%d homes have strong in/out correlation", strong, homes)
	}
}

func TestZipfianValueDistribution(t *testing.T) {
	// Fig. 1: traffic values follow Zipf's law — the rank-value log-log fit
	// should be convincing and most probability mass should sit at low
	// values (active traffic looks like outliers).
	d := NewDeployment(smallCfg())
	h := d.Home(1)
	var obs []float64
	for _, v := range h.Overall().Values {
		if !math.IsNaN(v) {
			obs = append(obs, v)
		}
	}
	fit := stats.FitZipf(obs)
	if fit.R2 < 0.75 {
		t.Errorf("rank-value power-law fit R2 = %.3f, want > 0.75", fit.R2)
	}
	bp, err := stats.NewBoxplot(obs, stats.DefaultWhiskerK)
	if err != nil {
		t.Fatal(err)
	}
	if len(bp.Outliers) == 0 {
		t.Error("active traffic should surface as boxplot outliers")
	}
	if bp.Median > 50000 {
		t.Errorf("median traffic %g suspiciously high — background should dominate", bp.Median)
	}
}

func TestReliabilityDrivesCoverage(t *testing.T) {
	d := NewDeployment(DefaultConfig())
	weeks := 4
	weeklyOK, dailyOK := 0, 0
	for i := 0; i < d.NumHomes(); i++ {
		h := d.Home(i)
		off := h.offline
		// Check coverage directly on the outage plan (cheap, no traffic).
		wOK, dOK := true, true
		for w := 0; w < weeks; w++ {
			allOff := true
			for m := w * 7 * 24 * 60; m < (w+1)*7*24*60; m++ {
				if !off[m] {
					allOff = false
					break
				}
			}
			if allOff {
				wOK = false
			}
		}
		for day := 0; day < weeks*7; day++ {
			allOff := true
			for m := day * 24 * 60; m < (day+1)*24*60; m++ {
				if !off[m] {
					allOff = false
					break
				}
			}
			if allOff {
				dOK = false
				break
			}
		}
		if wOK {
			weeklyOK++
		}
		if dOK {
			dailyOK++
		}
	}
	// Paper cohorts: 153/196 weekly, 100/196 daily. Allow generous bands.
	if weeklyOK < 130 || weeklyOK > 185 {
		t.Errorf("weekly coverage cohort = %d, want ~153", weeklyOK)
	}
	if dailyOK < 80 || dailyOK > 130 {
		t.Errorf("daily coverage cohort = %d, want ~100", dailyOK)
	}
	if dailyOK >= weeklyOK {
		t.Errorf("daily coverage (%d) must be stricter than weekly (%d)", dailyOK, weeklyOK)
	}
}

func TestGuestDevicesAreTransient(t *testing.T) {
	d := NewDeployment(DefaultConfig())
	guests := 0
	for i := 0; i < 60; i++ {
		for _, s := range d.Home(i).Devices {
			if !s.Guest {
				continue
			}
			guests++
			if s.leaveMin-s.joinMin > 6*24*60 {
				t.Errorf("guest stays %d minutes, want < 6 days", s.leaveMin-s.joinMin)
			}
		}
	}
	if guests == 0 {
		t.Error("no guest devices in 60 homes")
	}
}

func TestHeavyBackgroundTail(t *testing.T) {
	// Fig. 4 tail: a small share of devices runs heavy background (>40 kB/min
	// thresholds). They must exist but stay rare.
	d := NewDeployment(DefaultConfig())
	heavy, total := 0, 0
	for i := 0; i < d.NumHomes(); i++ {
		for _, s := range d.Home(i).Devices {
			total++
			if s.heavyBG {
				heavy++
			}
		}
	}
	frac := float64(heavy) / float64(total)
	if heavy == 0 {
		t.Fatal("no heavy-background devices generated")
	}
	if frac > 0.05 {
		t.Errorf("heavy-background share = %.3f, want ~0.01-0.02", frac)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config should validate (defaults apply): %v", err)
	}
	if err := (Config{Homes: 10, Weeks: 2}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if err := (Config{Homes: -1}).Validate(); err == nil {
		t.Error("negative homes accepted")
	}
	if err := (Config{Weeks: -3}).Validate(); err == nil {
		t.Error("negative weeks accepted")
	}
}
