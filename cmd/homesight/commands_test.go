package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"homesight/internal/obs/slogx"
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

// TestExperimentsTimeoutEndsTheRun: -timeout is a deadline on the whole
// run, so a run that outlives it fails with the deadline and prints no
// shape checks.
func TestExperimentsTimeoutEndsTheRun(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"experiments", "-homes", "2", "-weeks", "1",
		"-timeout", "1ns", "-log-level", "error"}, &out)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("run error = %v, want one wrapping context.DeadlineExceeded", err)
	}
	if strings.Contains(out.String(), "=== shapes") {
		t.Errorf("a run past its deadline printed the shape checks:\n%s", out.String())
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

// TestStoreCommandsOnDemoPartition drives inspect, verify and compact
// over a collector partition.
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
}

// TestExperimentsOnDemoPartition: the paper's figures run on a stored
// campaign, the partition being the one dataset format on disk.
func TestExperimentsOnDemoPartition(t *testing.T) {
	dir := demoPartition(t)
	got := runOK(t, "experiments", "-homes", "2", "-weeks", "1", "-data-dir", dir, "-run", "fig4,fig5", "-log-level", "error")
	for _, id := range []string{"fig4", "fig5"} {
		section(t, got, id)
	}
}

// TestExperimentsReadOnePartition: on one partition of a multi-shard
// campaign, experiments analyses the homes that partition holds and no
// others: its header counts the gateways store inspect lists there.
func TestExperimentsReadOnePartition(t *testing.T) {
	root := t.TempDir()
	runOK(t, "collector", "-demo", "-shards", "2", "-homes", "6", "-weeks", "1", "-data-dir", root, "-log-level", "error")
	held := regexp.MustCompile(`(?m)^gateways: (\d+)$`)
	total := 0
	for k := 0; k < 2; k++ {
		dir := filepath.Join(root, fmt.Sprintf("shard-%04d", k))
		m := held.FindStringSubmatch(runOK(t, "store", "inspect", "-dir", dir))
		if m == nil {
			t.Fatalf("store inspect of %s printed no gateway count", dir)
		}
		n, _ := strconv.Atoi(m[1])
		got := runOK(t, "experiments", "-homes", "6", "-weeks", "1", "-data-dir", dir, "-run", "inout", "-log-level", "error")
		if want := fmt.Sprintf("— %d gateways, 1 weeks,", n); !strings.Contains(got, want) {
			t.Errorf("experiments on %s printed\n%s\nwant %q: the partition holds %d", dir, got, want, n)
		}
		total += n
	}
	if total != 6 {
		t.Errorf("the two partitions hold %d gateways, want the campaign's 6", total)
	}
}

// TestReadersNeedAPartition: every command that reads a partition fails,
// naming the path, on a directory that holds none — a missing path or a
// collector's fleet root — and writes nothing there.
func TestReadersNeedAPartition(t *testing.T) {
	root := filepath.Dir(demoPartition(t))
	missing := filepath.Join(t.TempDir(), "missing")
	for _, dir := range []string{missing, root} {
		before := tree(t, dir)
		for _, args := range [][]string{
			{"experiments", "-homes", "2", "-weeks", "1", "-run", "fig5", "-data-dir", dir, "-log-level", "error"},
			{"store", "inspect", "-dir", dir},
			{"store", "verify", "-dir", dir},
			{"store", "compact", "-dir", dir},
			{"store", "serve", "-dir", dir, "-addr", "127.0.0.1:0"},
		} {
			// Serve only returns on its own when it fails: the deadline
			// ends one that opened the directory anyway.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			err := run(ctx, args, io.Discard)
			cancel()
			if exitCode(err) == 0 || !strings.Contains(err.Error(), dir) {
				t.Errorf("homesight %s: %v, want a failure naming %s", strings.Join(args, " "), err, dir)
			}
			if after := tree(t, dir); !slices.Equal(after, before) {
				t.Errorf("homesight %s left %v behind; there was %v", strings.Join(args, " "), after, before)
			}
		}
	}
}

// tree lists every path under dir, nil when there is no dir.
func tree(t *testing.T, dir string) []string {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(dir, func(p string, _ fs.DirEntry, err error) error {
		paths = append(paths, p)
		return err
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		t.Fatal(err)
	}
	if err != nil {
		return nil
	}
	return paths
}

// TestStoreServeEndsOnCancel: serve answers a stored home's summary,
// its Def. 4 dominants included, and shuts down, closing the store, when
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
	var resp *http.Response
	for {
		if resp, err = http.Get("http://" + addr + "/api/v1/homes/gw000/summary"); err == nil {
			break
		}
		select {
		case err := <-done:
			t.Fatalf("serve returned before answering: %v", err)
		case <-time.After(20 * time.Millisecond):
		}
	}
	var sum struct {
		Data struct {
			Dominants []string `json:"dominants"`
		} `json:"data"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sum)
	_ = resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/api/v1/homes/gw000/summary: %s, %v", resp.Status, err)
	}
	if len(sum.Data.Dominants) == 0 {
		t.Error("gw000's summary lists no dominant device")
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("cancelled serve returned %v, want nil", err)
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
		{"experiments", "-log-level", "loud"},
		{"experiments", "-log-level", "warning"},
		{"experiments", "-homes", "2", "-weeks", "1", "-run", "nope"},
		{"collector", "-demo", "-kill"},
		{"collector", "-demo", "-kill", "-shards", "2", "-fsync", "interval"},
		{"collector", "-demo", "-kill", "-router", "shard-0000=127.0.0.1:1"},
		{"store"},
		{"store", "inspect"},
		{"store", "export", "-dir", "x"},
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

// TestLogLevelFlag: -log-level takes slog's level names and sets the
// level every logger filters at (TestUsageErrors has the rejected names).
func TestLogLevelFlag(t *testing.T) {
	defer slogx.SetLevel(slog.LevelInfo)
	for name, lvl := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "WARN": slog.LevelWarn, "error": slog.LevelError,
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		sharedFlags(fs, 1, 1)
		if err := parseFlags(fs, []string{"-log-level", name}); err != nil {
			t.Errorf("-log-level %s: %v", name, err)
		}
		l := slogx.With()
		if !l.Enabled(context.Background(), lvl) || l.Enabled(context.Background(), lvl-1) {
			t.Errorf("-log-level %s: loggers do not filter at %v", name, lvl)
		}
	}
}

// TestUsageListsEveryCommand: the usage text names each subcommand of
// the dispatch table once, and nothing else.
func TestUsageListsEveryCommand(t *testing.T) {
	_, list, _ := strings.Cut(usage, "subcommands:\n")
	list, _, _ = strings.Cut(list, "\n\n")
	listed := map[string]int{}
	for _, line := range strings.Split(list, "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			listed[f[0]]++
		}
	}
	for name, n := range listed {
		if _, ok := commands[name]; !ok || n != 1 {
			t.Errorf("usage lists %q %d times; in commands: %v", name, n, ok)
		}
	}
	for name := range commands {
		if listed[name] == 0 {
			t.Errorf("usage does not list %q", name)
		}
	}
}
