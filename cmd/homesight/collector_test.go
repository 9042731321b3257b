package main

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"homesight/internal/gateway"
	homestore "homesight/internal/store"
	"homesight/internal/synth"
)

// demoReport runs a demo and returns its totals and motif sections:
// everything from the "gateway totals" line on.
func demoReport(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	args = append([]string{"-demo", "-homes", "2", "-weeks", "1", "-log-level", "error"}, args...)
	if err := runCollector(context.Background(), args, &out); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	_, sections, ok := strings.Cut(out.String(), "gateway totals")
	if !ok {
		t.Fatalf("run %v printed no totals:\n%s", args, out.String())
	}
	return sections
}

// TestDemoIndependentOfShardCount: the demo's totals and motifs are read
// back from the partitions in gateway order, so they depend neither on
// how many shards the campaign was spread over nor on scheduling.
func TestDemoIndependentOfShardCount(t *testing.T) {
	one := demoReport(t, "-shards", "1")
	if n := strings.Count(one, "devices="); n != 2 {
		t.Fatalf("%d gateway total lines, want 2:\n%s", n, one)
	}
	if !strings.Contains(one, "motif 0:") {
		t.Fatalf("no motif mined, so the shard counts are compared on nothing:\n%s", one)
	}
	if two := demoReport(t, "-shards", "2"); two != one {
		t.Errorf("-shards 2 printed\n%s\n-shards 1 printed\n%s", two, one)
	}
	if again := demoReport(t, "-shards", "1"); again != one {
		t.Errorf("a second -shards 1 run printed\n%s\nthe first printed\n%s", again, one)
	}
}

// TestReportMinesRecurringEvenings: three days of the same evening
// activity, written to a partition, are one motif of support 3. Each day
// also has a 3-hour burst of chatter below the background cap, in a
// different bin per day: only with background removed do the days look
// alike. The rest of the week has no reports; its windows are
// unobserved and not mined.
func TestReportMinesRecurringEvenings(t *testing.T) {
	cfg := synth.Config{Start: time.Date(2014, 3, 17, 0, 0, 0, 0, time.UTC), Weeks: 1}
	root := t.TempDir()
	st, err := homestore.Open(homestore.Config{
		Dir: filepath.Join(root, "shard-0000"), Start: cfg.Start, Step: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	em := gateway.NewEmitter("gwB")
	for m := 0; m < 3*24*60; m++ {
		day, h := m/(24*60), m%(24*60)/60
		traffic := 120.0 // background
		switch {
		case h >= 19 && h < 23:
			traffic = 6000 // evening activity: 6 600 B/min with OutBytes, above the cap
		case h/3 == day:
			traffic = 4000 // chatter: 4 400 B/min, below the cap
		}
		rep := em.Emit(cfg.Start.Add(time.Duration(m)*time.Minute), []gateway.DeviceMinute{
			{MAC: "m1", InBytes: traffic, OutBytes: traffic / 10},
		})
		if err := st.Append(rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := report(&out, root, cfg, nil); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"  gwB  devices=1  ",
		"discovered 1 daily motifs in 3 windows:\n  motif 0: support 3 across 1 gateways\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}
