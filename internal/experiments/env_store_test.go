package experiments

import (
	"math"
	"os"
	"path/filepath"
	"strings"
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

// TestEnvWithStore pins the WithStore contract: the Env serves exactly
// the homes the partition holds, in deployment order, each loading its
// series from disk (matching the Recorder reconstruction of the same
// report stream exactly), and the aggregate and dominance pipelines run
// unchanged on them.
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
	if n := env.Campaign().Homes; n != 2 {
		t.Fatalf("Env serves %d homes; the partition holds 2", n)
	}
	for i, want := range []string{"gw000", "gw001"} {
		if id := env.home(i).id; id != want {
			t.Errorf("home %d is %s, want %s", i, id, want)
		}
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

	// The aggregate + dominance pipelines run unchanged on the stored
	// homes: cohort selection, active overalls, dominance detection.
	ids, series := env.WeeklyCohort(1)
	if len(ids) != len(series) {
		t.Fatalf("cohort shape: %d ids, %d series", len(ids), len(series))
	}
	for i := 0; i < env.Campaign().Homes; i++ {
		res := env.Dominance(i)
		if got := len(res.All); got == 0 {
			t.Fatalf("home %d: dominance saw no devices", i)
		}
	}
}

// TestEnvWithStoreRejectsForeignGateway: a partition holding a gateway
// the deployment lacks is not a partition of that deployment, so NewEnv
// fails and names the gateway instead of dropping its home.
func TestEnvWithStoreRejectsForeignGateway(t *testing.T) {
	dep := synth.NewDeployment(synth.Config{Homes: 3, Weeks: 1, Seed: 11})
	cfg := dep.Config()
	dir := t.TempDir()
	s, err := store.Open(store.Config{Dir: dir, Start: cfg.Start, Step: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.Homes; i++ {
		persistHome(t, s, dep, i, "")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(WithHomes(2), WithWeeks(cfg.Weeks), WithSeed(cfg.Seed), WithStore(dir))
	if err == nil {
		_ = env.Close()
		t.Fatal("NewEnv accepted a partition holding gw002 for a 2-home deployment")
	}
	if !strings.Contains(err.Error(), "gw002") {
		t.Errorf("NewEnv error %q does not name gw002", err)
	}
}

// TestEnvWithStoreNeedsAPartition: WithStore on a directory that holds
// no partition fails and leaves the directory as it was.
func TestEnvWithStoreNeedsAPartition(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing")
	for _, d := range []string{dir, missing} {
		if env, err := NewEnv(WithHomes(2), WithWeeks(1), WithStore(d)); err == nil {
			_ = env.Close()
			t.Errorf("NewEnv opened %s, which holds no partition", d)
		} else if !strings.Contains(err.Error(), d) {
			t.Errorf("NewEnv error %q does not name %s", err, d)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("%s after the failed opens: %v entries (%v), want none", dir, len(entries), err)
	}
}
