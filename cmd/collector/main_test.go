package main

import (
	"bytes"
	"strings"
	"testing"
)

// demoReport runs a demo and returns its totals and motif sections:
// everything from the "gateway totals" line on.
func demoReport(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	args = append([]string{"-demo", "-homes", "2", "-weeks", "1", "-log-level", "error"}, args...)
	if err := run(args, &out); err != nil {
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
	if !strings.Contains(one, "streaming stage discovered") {
		t.Fatalf("no motif section:\n%s", one)
	}
	if two := demoReport(t, "-shards", "2"); two != one {
		t.Errorf("-shards 2 printed\n%s\n-shards 1 printed\n%s", two, one)
	}
	if again := demoReport(t, "-shards", "1"); again != one {
		t.Errorf("a second -shards 1 run printed\n%s\nthe first printed\n%s", again, one)
	}
}
