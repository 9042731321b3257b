package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"homesight/internal/dataset"
)

// runOK runs one command line and returns its stdout.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatalf("homesight %s: %v\n%s", strings.Join(args, " "), err, out.String())
	}
	return out.String()
}

// section returns the "=== id — doc" report of a suite rendering, up to
// the next report.
func section(t *testing.T, s, id string) string {
	t.Helper()
	i := strings.Index(s, "=== "+id+" ")
	if i < 0 {
		t.Fatalf("no %s section in\n%s", id, s)
	}
	s = s[i:]
	if j := strings.Index(s, "\n=== "); j >= 0 {
		s = s[:j+1]
	}
	return s
}

// TestExperimentsFig5MatchesSuiteGolden: a -run subset prints the same
// report as the full suite the runner's golden file holds.
func TestExperimentsFig5MatchesSuiteGolden(t *testing.T) {
	golden, err := os.ReadFile("../../internal/runner/testdata/suite_h16_w2_seed20140317.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := runOK(t, "experiments", "-homes", "16", "-weeks", "2", "-parallel", "1", "-run", "fig5", "-log-level", "error")
	if g, w := section(t, got, "fig5"), section(t, string(golden), "fig5"); g != w {
		t.Errorf("fig5 printed\n%s\nthe suite golden holds\n%s", g, w)
	}
}

// notifyWriter discards what it is given, closing reported on the first
// write that carries a report section.
type notifyWriter struct {
	once     sync.Once
	reported chan struct{}
}

func (w *notifyWriter) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte("=== ")) {
		w.once.Do(func() { close(w.reported) })
	}
	return len(p), nil
}

// TestExperimentsHoldEndsOnCancel: -hold waits on the command's context,
// so a signal ends it through the deferred cleanup instead of killing
// the process mid-sleep.
func TestExperimentsHoldEndsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &notifyWriter{reported: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"experiments", "-homes", "2", "-weeks", "1", "-run", "inout",
			"-debug-addr", "127.0.0.1:0", "-hold", "1h", "-log-level", "error"}, out)
	}()
	select {
	case <-out.reported:
	case err := <-done:
		t.Fatalf("run returned before holding: %v", err)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("cancelled hold returned %v, want nil", err)
	}
}

// demoPartition runs a 2-home demo campaign into a fresh fleet root and
// returns its one partition.
func demoPartition(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	runOK(t, "collector", "-demo", "-homes", "2", "-weeks", "1", "-data-dir", root, "-log-level", "error")
	return filepath.Join(root, "shard-0000")
}

// TestStoreCommandsOnDemoPartition drives inspect, verify, compact and
// export over a collector partition, then analyses the export.
func TestStoreCommandsOnDemoPartition(t *testing.T) {
	dir := demoPartition(t)
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"inspect"}, "gateways: 2\n  gw000: "},
		{[]string{"verify"}, "ok: 0 segments, "},
		{[]string{"compact"}, "compacted 0 segments (0 bytes) into 1 "},
		{[]string{"verify"}, "ok: 1 segments, "},
		{[]string{"inspect", "-json"}, `"version": "v1"`},
	} {
		args := append([]string{"store", c.args[0], "-dir", dir}, c.args[1:]...)
		if got := runOK(t, args...); !strings.Contains(got, c.want) {
			t.Errorf("homesight %s printed\n%s\nwant it to contain %q", strings.Join(args, " "), got, c.want)
		}
	}
	csv := filepath.Join(t.TempDir(), "csv")
	if got := runOK(t, "store", "export", "-dir", dir, "-out", csv); !strings.Contains(got, "exported 2 gateways") {
		t.Errorf("export printed %q", got)
	}
	got := runOK(t, "dominants", "-data", csv)
	if !strings.Contains(got, "Dominant devices") || !strings.Contains(got, "\ngw000 ") {
		t.Errorf("dominants -data on the export printed\n%s", got)
	}
}

// TestStoreServeEndsOnCancel: serve shuts down, closing the store, when
// its context ends — how SIGTERM reaches it.
func TestStoreServeEndsOnCancel(t *testing.T) {
	dir := demoPartition(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- run(ctx, []string{"store", "serve", "-dir", dir, "-addr", addr}, io.Discard) }()
	for {
		resp, err := http.Get("http://" + addr + "/api/v1/homes")
		if err == nil {
			_ = resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/api/v1/homes: %s", resp.Status)
			}
			break
		}
		select {
		case err := <-done:
			t.Fatalf("serve returned before answering: %v", err)
		case <-time.After(20 * time.Millisecond):
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("cancelled serve returned %v, want nil", err)
	}
}

// TestSimulateExportLoads: the CSV bundle and manifest read back as a
// dataset.
func TestSimulateExportLoads(t *testing.T) {
	dir := t.TempDir()
	runOK(t, "simulate", "-homes", "3", "-weeks", "1", "-out", dir, "-q")
	man, gws, err := dataset.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(gws) != 3 || man.Config.Weeks != 1 || gws[0].ID != "gw000" {
		t.Fatalf("loaded %d gateways, %d weeks, first %q; want 3, 1, gw000", len(gws), man.Config.Weeks, gws[0].ID)
	}
}

// TestCollectorKillDrill: a shard crash-stopped mid-campaign loses no
// report — the routing accounting reconciles, the read-back equals a
// clean run's, and every live answer stays within the documented
// tolerances of the batch pipeline.
func TestCollectorKillDrill(t *testing.T) {
	got := runOK(t, "collector", "-demo", "-homes", "2", "-weeks", "1", "-shards", "3", "-kill", "-live", "-log-level", "error")
	for _, want := range []string{"fleet: killing shard-", " replayed + ", "reassigned ✓\n", "  within documented tolerances ✓\n"} {
		if !strings.Contains(got, want) {
			t.Errorf("kill drill printed\n%s\nwant it to contain %q", got, want)
		}
	}
	if strings.Contains(got, " 0 replayed + ") {
		t.Errorf("the killed shard's history was not replayed:\n%s", got)
	}
	_, drill, _ := strings.Cut(got, "gateway totals")
	drill, _, _ = strings.Cut(drill, "live reconcile")
	if clean := demoReport(t, "-shards", "1"); drill != clean {
		t.Errorf("kill drill read back\n%s\na clean run reads back\n%s", drill, clean)
	}
}

// TestUsageErrors: a command line that cannot run is a usageError (exit
// 2) before any work starts.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"nope"},
		{"experiments", "-bogus"},
		{"experiments", "-homes", "2", "-weeks", "1", "-run", "nope"},
		{"collector", "-demo", "-kill"},
		{"collector", "-demo", "-kill", "-shards", "2", "-fsync", "interval"},
		{"collector", "-demo", "-kill", "-router", "shard-0000=127.0.0.1:1"},
		{"store"},
		{"store", "inspect"},
		{"store", "export", "-dir", "x"},
		{"dominants"},
		{"similarity", "gw000"},
	} {
		err := run(context.Background(), args, io.Discard)
		if !errors.As(err, new(usageError)) || exitCode(err) != 2 {
			t.Errorf("homesight %s: %v, want a usage error", strings.Join(args, " "), err)
		}
	}
	if exitCode(flag.ErrHelp) != 2 || exitCode(errors.New("boom")) != 1 || exitCode(nil) != 0 {
		t.Error("exit codes: -h and usage errors are 2, other failures 1, success 0")
	}
}
