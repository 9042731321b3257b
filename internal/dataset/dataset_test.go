package dataset

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"homesight/internal/devices"
	"homesight/internal/synth"
	"homesight/internal/timeseries"
)

var mon = time.Date(2014, 3, 17, 0, 0, 0, 0, time.UTC)

func smallHome(t *testing.T) (*synth.Home, synth.Config) {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Homes = 5
	cfg.Weeks = 2
	return synth.NewDeployment(cfg).Home(1), cfg
}

func TestFromSynthHome(t *testing.T) {
	h, cfg := smallHome(t)
	g := FromSynthHome(h, 1, true)
	if g.ID != h.ID {
		t.Errorf("id = %q", g.ID)
	}
	wantLen := 7 * 24 * 60
	if g.Overall.Len() != wantLen {
		t.Errorf("overall len = %d, want %d (1 week)", g.Overall.Len(), wantLen)
	}
	if len(g.Devices) != len(h.Devices) {
		t.Errorf("devices = %d, want %d", len(g.Devices), len(h.Devices))
	}
	if g.Residents != h.Residents {
		t.Errorf("residents = %d, want %d (surveyed)", g.Residents, h.Residents)
	}
	// Unsurveyed homes hide the count.
	if FromSynthHome(h, 1, false).Residents != 0 {
		t.Error("unsurveyed home leaked resident count")
	}
	// Full campaign when weeks = 0.
	if full := FromSynthHome(h, 0, false); full.Overall.Len() != cfg.Minutes() {
		t.Errorf("full len = %d, want %d", full.Overall.Len(), cfg.Minutes())
	}
}

func TestCoverageFilters(t *testing.T) {
	n := 14 * 24 * 60
	vals := make([]float64, n)
	s := timeseries.New(mon, time.Minute, vals)
	if !HasWeeklyCoverage(s, 2) || !HasDailyCoverage(s, 14) {
		t.Error("fully observed series should pass both filters")
	}
	// Blank out day 3 entirely.
	for m := 3 * 24 * 60; m < 4*24*60; m++ {
		vals[m] = math.NaN()
	}
	if HasDailyCoverage(s, 14) {
		t.Error("missing day must fail daily coverage")
	}
	if !HasWeeklyCoverage(s, 2) {
		t.Error("missing day must not fail weekly coverage")
	}
	// Blank the whole second week.
	for m := 7 * 24 * 60; m < n; m++ {
		vals[m] = math.NaN()
	}
	if HasWeeklyCoverage(s, 2) {
		t.Error("missing week must fail weekly coverage")
	}
	// Requesting more periods than the series holds fails.
	if HasWeeklyCoverage(s, 3) {
		t.Error("coverage beyond the series extent must fail")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	h, _ := smallHome(t)
	g := FromSynthHome(h, 1, false)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, g); err != nil {
		t.Fatal(err)
	}
	n := g.Overall.Len()
	got, err := ReadCSV(bytes.NewReader(buf.Bytes()), g.ID, mon, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Devices) == 0 {
		t.Fatal("no devices read back")
	}
	// Index devices by MAC for comparison.
	byMAC := make(map[string]DeviceRecord)
	for _, dr := range got.Devices {
		byMAC[dr.Device.MAC] = dr
	}
	for _, want := range g.Devices {
		rt, ok := byMAC[want.Device.MAC]
		if !ok {
			// Devices with zero observed minutes produce no rows.
			if want.In.ObservedCount() > 0 {
				t.Fatalf("device %s lost in round trip", want.Device.MAC)
			}
			continue
		}
		if rt.Device.Inferred != want.Device.Inferred || rt.Device.Name != want.Device.Name {
			t.Errorf("device identity changed: %+v vs %+v", rt.Device, want.Device)
		}
		for m := 0; m < n; m++ {
			w, g2 := want.In.Values[m], rt.In.Values[m]
			if math.IsNaN(w) != math.IsNaN(g2) || (!math.IsNaN(w) && w != g2) {
				t.Fatalf("mac %s minute %d: %g vs %g", want.Device.MAC, m, w, g2)
			}
		}
	}
	// Rebuilt overall must match the original where defined.
	for m := 0; m < n; m++ {
		w, g2 := g.Overall.Values[m], got.Overall.Values[m]
		if math.IsNaN(w) || math.IsNaN(g2) {
			continue
		}
		if math.Abs(w-g2) > 1e-9 {
			t.Fatalf("overall minute %d: %g vs %g", m, w, g2)
		}
	}
}

// TestScanCSVStreams pins the streaming contract: rows arrive in file
// order without materializing series, fn errors abort the scan, and an
// empty type column is re-inferred with devices.Classify — the
// homestore export format, whose wire reports never carried a type.
func TestScanCSVStreams(t *testing.T) {
	csv := "minute,timestamp,mac,name,type,in_bytes,out_bytes\n" +
		"0,x,aa:bb,Chromecast,,5,1\n" +
		"2,x,aa:bb,Chromecast,,7,\n" +
		"3,x,cc:dd,thing,tv,2,2\n"
	var rows []Row
	if err := ScanCSV(strings.NewReader(csv), 10, func(r Row) error {
		rows = append(rows, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("scanned %d rows, want 3", len(rows))
	}
	if rows[0].Minute != 0 || rows[1].Minute != 2 || rows[2].Minute != 3 {
		t.Fatalf("minutes out of order: %+v", rows)
	}
	if want := devices.Classify("aa:bb", "Chromecast"); rows[0].Type != want {
		t.Errorf("empty type column: got %q, want Classify result %q", rows[0].Type, want)
	}
	if rows[2].Type != devices.Type("tv") {
		t.Errorf("explicit type column overridden: got %q", rows[2].Type)
	}
	if !math.IsNaN(rows[1].Out) || rows[1].In != 7 {
		t.Errorf("half-observed row parsed as %+v", rows[1])
	}
	// fn errors abort the scan.
	n := 0
	stop := fmt.Errorf("stop")
	err := ScanCSV(strings.NewReader(csv), 10, func(Row) error {
		n++
		return stop
	})
	if err != stop || n != 1 {
		t.Errorf("fn error: err=%v after %d rows, want stop after 1", err, n)
	}
}

// TestRebuildOverallHalfObserved: a minute where only one direction was
// observed contributes the observed direction instead of going NaN.
func TestRebuildOverallHalfObserved(t *testing.T) {
	csv := "minute,timestamp,mac,name,type,in_bytes,out_bytes\n" +
		"0,x,aa:bb,d,tv,5,\n"
	g, err := ReadCSV(strings.NewReader(csv), "gw", mon, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.Overall.Values[0] != 5 {
		t.Errorf("overall[0] = %v, want 5", g.Overall.Values[0])
	}
	if !math.IsNaN(g.Overall.Values[1]) {
		t.Errorf("overall[1] = %v, want NaN", g.Overall.Values[1])
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader(""), "gw", mon, 10); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n"), "gw", mon, 10); err == nil {
		t.Error("bad header should fail")
	}
	bad := "minute,timestamp,mac,name,type,in_bytes,out_bytes\n999,x,m,n,t,1,1\n"
	if _, err := ReadCSV(strings.NewReader(bad), "gw", mon, 10); err == nil {
		t.Error("out-of-range minute should fail")
	}
	badBytes := "minute,timestamp,mac,name,type,in_bytes,out_bytes\n1,x,m,n,t,notanumber,1\n"
	if _, err := ReadCSV(strings.NewReader(badBytes), "gw", mon, 10); err == nil {
		t.Error("malformed bytes should fail")
	}
}

func TestDeviceRecordOverall(t *testing.T) {
	in := timeseries.New(mon, time.Minute, []float64{1, 2})
	out := timeseries.New(mon, time.Minute, []float64{10, 20})
	dr := DeviceRecord{In: in, Out: out}
	o := dr.Overall()
	if o.Values[0] != 11 || o.Values[1] != 22 {
		t.Errorf("overall = %v", o.Values)
	}
}

func TestLoadDirRoundTrip(t *testing.T) {
	// Export a small deployment the way `homesight simulate` does, then load it back.
	dir := t.TempDir()
	cfg := synth.DefaultConfig()
	cfg.Homes = 3
	cfg.Weeks = 1
	dep := synth.NewDeployment(cfg)

	man := map[string]interface{}{
		"config": map[string]interface{}{
			"Seed": cfg.Seed, "Homes": cfg.Homes, "Start": cfg.Start, "Weeks": cfg.Weeks,
		},
	}
	var homes []map[string]interface{}
	for i := 0; i < dep.NumHomes(); i++ {
		h := dep.Home(i)
		g := FromSynthHome(h, 0, false)
		f, err := os.Create(filepath.Join(dir, h.ID+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteCSV(f, g); err != nil {
			t.Fatal(err)
		}
		f.Close()
		homes = append(homes, map[string]interface{}{
			"id": h.ID, "archetype": string(h.Archetype), "residents": h.Residents,
			"reliability": string(h.Reliability), "fiber": h.Fiber, "devices": len(h.Devices),
		})
	}
	man["homes"] = homes
	mf, err := os.Create(filepath.Join(dir, "deployment.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewEncoder(mf).Encode(man); err != nil {
		t.Fatal(err)
	}
	mf.Close()

	loadedMan, gateways, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loadedMan.Config.Homes != 3 || len(gateways) != 3 {
		t.Fatalf("loaded %d gateways, manifest says %d", len(gateways), loadedMan.Config.Homes)
	}
	// Residents flow from the manifest.
	if gateways[0].Residents != dep.Home(0).Residents {
		t.Errorf("residents = %d", gateways[0].Residents)
	}
	// Traffic round-trips (spot check against the generator).
	want := dep.Home(1).Overall()
	got := gateways[1].Overall
	match := 0
	for m := 0; m < got.Len(); m++ {
		w, g := want.Values[m], got.Values[m]
		if !math.IsNaN(w) && !math.IsNaN(g) {
			if math.Abs(w-g) > 1e-9 {
				t.Fatalf("minute %d: %g vs %g", m, g, w)
			}
			match++
		}
	}
	if match == 0 {
		t.Fatal("no comparable minutes")
	}

	// ForEachGateway streams the same homes in manifest order, and fn
	// errors abort the walk.
	var seen []string
	if _, err := ForEachGateway(dir, func(mh ManifestHome, g *Gateway) error {
		if mh.ID != g.ID {
			t.Fatalf("manifest home %s paired with gateway %s", mh.ID, g.ID)
		}
		seen = append(seen, g.ID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || seen[0] != "gw000" || seen[2] != "gw002" {
		t.Errorf("streamed %v", seen)
	}
	stop := fmt.Errorf("stop")
	if _, err := ForEachGateway(dir, func(ManifestHome, *Gateway) error { return stop }); err != stop {
		t.Errorf("fn error not propagated: %v", err)
	}
}

func TestLoadDirErrors(t *testing.T) {
	if _, _, err := LoadDir(t.TempDir()); err == nil {
		t.Error("missing manifest should fail")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "deployment.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadDir(dir); err == nil {
		t.Error("empty manifest should fail")
	}
}
