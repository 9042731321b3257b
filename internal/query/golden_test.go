package query

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"homesight/internal/corrsim"
	"homesight/internal/dominance"
	"homesight/internal/gateway"
	"homesight/internal/livestats"
	"homesight/internal/stats/corr"
	"homesight/internal/store"
	"homesight/internal/synth"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this tree's output")

// persistCampaign replays every home of a synthetic deployment into a
// fresh store under dir through the collector's report stream (cumulative
// counters from gateway.Emitter) and closes it.
func persistCampaign(t testing.TB, dir string, cfg synth.Config) synth.Config {
	t.Helper()
	dep := synth.NewDeployment(cfg)
	cfg = dep.Config()
	s, err := store.Open(store.Config{Dir: dir, Start: cfg.Start, Step: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.Homes; i++ {
		h := dep.Home(i)
		traffic := h.Traffic()
		em := gateway.NewEmitter(h.ID)
		for m := 0; m < cfg.Minutes(); m++ {
			dms := make([]gateway.DeviceMinute, 0, len(traffic))
			for _, dt := range traffic {
				dms = append(dms, gateway.DeviceMinute{
					MAC: dt.Spec.Device.MAC, Name: dt.Spec.Device.Name,
					InBytes: dt.In.Values[m], OutBytes: dt.Out.Values[m],
				})
			}
			rep := em.Emit(cfg.Start.Add(time.Duration(m)*time.Minute), dms)
			if len(rep.Devices) == 0 {
				continue
			}
			if err := s.Append(rep); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// bits renders a float by its bit pattern, so a golden diff is a change
// in the last ulp, not in a rounding of the printout.
func bits(x float64) string { return fmt.Sprintf("%016x", math.Float64bits(x)) }

func corrBits(r corr.Result) string {
	return fmt.Sprintf("%s/%s/%d", bits(r.Coeff), bits(r.PValue), r.N)
}

func scoreLine(kind string, sc dominance.Score) string {
	return fmt.Sprintf("%s %s %q %s sim=%s euc=%s traffic=%s\n", kind, sc.Device.MAC, sc.Device.Name,
		sc.Device.Inferred, bits(sc.Similarity), bits(sc.Euclidean), bits(sc.Traffic))
}

// renderOffline prints a HomeProfile's Def. 1/Def. 4 fields and
// thresholds, floats by bit pattern (the summary line printed beside it
// carries the activity indicators and motif counts): Details in MAC
// order, thresholds in table (MAC) order.
func renderOffline(off *livestats.HomeProfile) string {
	var b strings.Builder
	fmt.Fprintf(&b, "minutes %d\n", off.Minutes)
	for _, sc := range off.Dominance.Dominants {
		b.WriteString(scoreLine("dominant", sc))
	}
	for _, sc := range off.Dominance.All {
		b.WriteString(scoreLine("all", sc))
	}
	macs := make([]string, 0, len(off.Details))
	for mac := range off.Details {
		macs = append(macs, mac)
	}
	sort.Strings(macs)
	for _, mac := range macs {
		d := off.Details[mac]
		fmt.Fprintf(&b, "detail %s pearson=%s spearman=%s kendall=%s sim=%s n=%d\n", mac,
			corrBits(d.Pearson), corrBits(d.Spearman), corrBits(d.Kendall), bits(d.Similarity), d.N)
	}
	for _, row := range off.Devices {
		fmt.Fprintf(&b, "threshold %s in=%s out=%s\n", row.Device.MAC, bits(row.Threshold.TauIn), bits(row.Threshold.TauOut))
	}
	return b.String()
}

// TestSummaryOfflineGolden holds the one profile of a stored home
// (livestats.Profile), as the /summary body renders it and as
// livestats.Offline returns it, to a checked-in file over a stored
// 4-home × 2-week synthetic campaign. Any change to how a home is read
// back from the store, or to the Def. 1/Def. 4 pass, thresholds, activity
// indicators or motif counts over it, that moves one bit fails here. `go
// test ./internal/query -run TestSummaryOfflineGolden -update` rewrites
// it.
func TestSummaryOfflineGolden(t *testing.T) {
	dir := t.TempDir()
	persistCampaign(t, dir, synth.Config{Homes: 4, Weeks: 2, Seed: 20140317})
	s, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Error(err)
		}
	}()
	h := New(Config{Store: s}).Handler()
	var b strings.Builder
	for _, gw := range s.Gateways() {
		fmt.Fprintf(&b, "=== %s\nsummary %s\n", gw, fetch(t, h, "/api/v1/homes/"+gw+"/summary"))
		off, err := livestats.Offline(context.Background(), s, gw, corrsim.Measure{}, dominance.DefaultPhi)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(renderOffline(off))
	}
	got := b.String()

	path := filepath.Join("testdata", "summary_offline.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("output differs from %s at line %d:\n got %q\nwant %q", path, i+1, g, w)
			}
		}
	}
}
