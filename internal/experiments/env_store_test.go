package experiments

import (
	"math"
	"testing"
	"time"

	"homesight/internal/gateway"
	"homesight/internal/store"
	"homesight/internal/synth"
	"homesight/internal/timeseries"
)

// persistHome replays home i's campaign into the store and a parity
// recorder through the same emitted reports, mirroring what the
// collector's persistence callback sees. The device with MAC flat, if
// any, stays associated but moves no bytes: its counters never advance.
func persistHome(t *testing.T, s *store.Store, dep *synth.Deployment, i int, flat string) *gateway.Recorder {
	t.Helper()
	cfg := dep.Config()
	h := dep.Home(i)
	traffic := h.Traffic()
	em := gateway.NewEmitter(h.ID)
	rec := gateway.NewRecorder(cfg.Start, time.Minute)
	for m := 0; m < cfg.Minutes(); m++ {
		var dms []gateway.DeviceMinute
		for _, dt := range traffic {
			dm := gateway.DeviceMinute{
				MAC:      dt.Spec.Device.MAC,
				Name:     dt.Spec.Device.Name,
				InBytes:  dt.In.Values[m],
				OutBytes: dt.Out.Values[m],
			}
			if dm.MAC == flat && !math.IsNaN(dm.InBytes) {
				dm.InBytes, dm.OutBytes = 0, 0
			}
			dms = append(dms, dm)
		}
		rep := em.Emit(cfg.Start.Add(time.Duration(m)*time.Minute), dms)
		if len(rep.Devices) == 0 {
			continue
		}
		if err := s.Append(rep); err != nil {
			t.Fatal(err)
		}
		if err := rec.Ingest(rep); err != nil {
			t.Fatal(err)
		}
	}
	return rec
}

// whole is every minute of a kept column, as series reads it back.
func whole(c *column) *timeseries.Series {
	return c.series(c.start, c.start.Add(math.MaxInt64))
}

func seriesEqual(t *testing.T, what string, got, want *timeseries.Series) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d points, want %d", what, got.Len(), want.Len())
	}
	for m := range want.Values {
		g, w := got.Values[m], want.Values[m]
		if math.IsNaN(g) != math.IsNaN(w) || (!math.IsNaN(w) && g != w) {
			t.Fatalf("%s: minute %d = %v, want %v", what, m, g, w)
		}
	}
}

// TestEnvWithStore pins the WithStore contract: homes present in the
// store load their series from disk (matching the Recorder
// reconstruction of the same report stream exactly), homes the store
// never saw fall back to the synthesizer bit-for-bit, and the aggregate
// and dominance pipelines run unchanged on the mixed Env.
func TestEnvWithStore(t *testing.T) {
	cfg := synth.Config{Homes: 3, Weeks: 1, Seed: 11}
	dep := synth.NewDeployment(cfg)
	cfg = dep.Config()

	dir := t.TempDir()
	s, err := store.Open(store.Config{Dir: dir, Start: cfg.Start, Step: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	recs := map[int]*gateway.Recorder{}
	for _, i := range []int{0, 1} {
		recs[i] = persistHome(t, s, dep, i, "")
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
			t.Fatal(err)
		}
	}()
	if !env.StoreBacked(0) || !env.StoreBacked(1) {
		t.Fatal("homes 0 and 1 should be store-backed")
	}
	if env.StoreBacked(2) {
		t.Fatal("home 2 was never persisted; must fall back to synth")
	}

	// Store-backed homes reconstruct exactly what a Recorder fed the same
	// reports reconstructs.
	days := env.WeeksMain * 7
	n := cfg.Minutes()
	for _, i := range []int{0, 1} {
		rec := recs[i]
		devs := env.home(i).devices
		macs := rec.MACs()
		if len(devs) != len(macs) {
			t.Fatalf("home %d: %d devices from store, recorder saw %d", i, len(devs), len(macs))
		}
		var wantGW *timeseries.Series
		for k, mac := range macs {
			if devs[k].dev.MAC != mac {
				t.Fatalf("home %d device %d: MAC %s, want %s (sorted)", i, k, devs[k].dev.MAC, mac)
			}
			if devs[k].dev.Name != rec.DeviceName(mac) {
				t.Fatalf("home %d device %s: name %q, want %q", i, mac, devs[k].dev.Name, rec.DeviceName(mac))
			}
			sum, out := rec.Series(mac, n) // fresh copies: sum adds out in place
			if err := sum.Add(out); err != nil {
				t.Fatal(err)
			}
			seriesEqual(t, "device overall", whole(devs[k].overall), sum)
			if wantGW == nil {
				wantGW = sum.Clone()
			} else if err := wantGW.Add(sum); err != nil {
				t.Fatal(err)
			}
		}
		seriesEqual(t, "raw overall", env.RawOverall(i, days), prefix(wantGW, days))
	}

	// Home 2 is identical to a fully synthetic Env.
	synthEnv, err := NewEnv(WithHomes(cfg.Homes), WithWeeks(cfg.Weeks), WithSeed(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	gw2, devs2 := env.home(2).raw, env.home(2).devices
	sgw2, sdevs2 := synthEnv.home(2).raw, synthEnv.home(2).devices
	seriesEqual(t, "fallback gateway overall", whole(gw2), whole(sgw2))
	if len(devs2) != len(sdevs2) {
		t.Fatalf("fallback home: %d devices, want %d", len(devs2), len(sdevs2))
	}

	// The aggregate + dominance pipelines must run unchanged on the
	// mixed Env: cohort selection, active overalls, dominance detection.
	ids, series := env.WeeklyCohort(1)
	if len(ids) != len(series) {
		t.Fatalf("cohort shape: %d ids, %d series", len(ids), len(series))
	}
	for i := 0; i < cfg.Homes; i++ {
		res := env.Dominance(i)
		if got := len(res.All); got == 0 {
			t.Fatalf("home %d: dominance saw no devices", i)
		}
	}
}
