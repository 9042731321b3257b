package store

import (
	"math"
	"testing"
	"time"

	"homesight/internal/dataset"
)

// TestExportRoundTrip pins the store→dataset bridge: `homesight store export`
// output loads through dataset.LoadDir and reproduces, device for
// device and minute for minute, exactly what the store itself
// reconstructs — so a persisted campaign and its CSV export feed the
// analysis pipeline identically.
func TestExportRoundTrip(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), Start: testStart, Step: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	storeSynthCorpus(t, s, 2, 1)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	out := t.TempDir()
	if err := s.Export(out); err != nil {
		t.Fatal(err)
	}
	man, gateways, err := dataset.LoadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(gateways) != len(s.Gateways()) {
		t.Fatalf("loaded %d gateways, store holds %d", len(gateways), len(s.Gateways()))
	}
	if man.Config.Start != testStart {
		t.Fatalf("manifest start %v, want %v", man.Config.Start, testStart)
	}
	n := man.Config.Weeks * minutesPerWeek

	for _, g := range gateways {
		if len(g.Devices) == 0 {
			t.Fatalf("gateway %s came back with no devices", g.ID)
		}
		for _, dr := range g.Devices {
			in, outS := reconstructSeries(t, s, g.ID, dr.Device.MAC, n)
			if in == nil {
				t.Fatalf("exported device %s/%s unknown to the store", g.ID, dr.Device.MAC)
			}
			if dr.Device.Name != s.DeviceName(g.ID, dr.Device.MAC) {
				t.Errorf("device %s name %q, store has %q",
					dr.Device.MAC, dr.Device.Name, s.DeviceName(g.ID, dr.Device.MAC))
			}
			for m := 0; m < n; m++ {
				for _, c := range []struct {
					what      string
					got, want float64
				}{
					{"in", dr.In.Values[m], in.Values[m]},
					{"out", dr.Out.Values[m], outS.Values[m]},
				} {
					if math.IsNaN(c.got) != math.IsNaN(c.want) ||
						(!math.IsNaN(c.want) && c.got != c.want) {
						t.Fatalf("%s/%s %s minute %d: %v, store says %v",
							g.ID, dr.Device.MAC, c.what, m, c.got, c.want)
					}
				}
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
