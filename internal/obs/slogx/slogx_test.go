package slogx

import (
	"context"
	"log/slog"
	"os/exec"
	"strings"
	"sync"
	"testing"
)

// capture points root at a buffer for the test, at the shared level.
func capture(t *testing.T) *strings.Builder {
	t.Helper()
	var b strings.Builder
	old := root
	root = slog.NewTextHandler(&b, &slog.HandlerOptions{Level: &level})
	t.Cleanup(func() { root = old; level.Set(slog.LevelInfo) })
	return &b
}

// TestWithBindsFields: a derived logger stamps its fields on every
// event, and SetLevel reaches it though it was derived before the call.
func TestWithBindsFields(t *testing.T) {
	b := capture(t)
	l := With("component", "x")
	SetLevel(slog.LevelWarn)
	l.Info("suppressed")
	l.Warn("kept", "gw", "gw042")
	if got := b.String(); strings.Contains(got, "suppressed") || !strings.Contains(got, "level=WARN msg=kept component=x gw=gw042\n") {
		t.Errorf("after SetLevel(WARN) a logger derived before it wrote %q", got)
	}
}

// TestLevelFiltering holds the stderr handler itself, not a test
// double, to the shared level: INFO by default, then whatever SetLevel says.
func TestLevelFiltering(t *testing.T) {
	defer SetLevel(slog.LevelInfo)
	ctx := context.Background()
	l := With("component", "x")
	if l.Enabled(ctx, slog.LevelDebug) || !l.Enabled(ctx, slog.LevelInfo) {
		t.Error("the default level is not INFO")
	}
	SetLevel(slog.LevelError)
	if l.Enabled(ctx, slog.LevelWarn) || !l.Enabled(ctx, slog.LevelError) {
		t.Error("SetLevel(ERROR) did not reach the stderr handler")
	}
}

func TestFatalExits(t *testing.T) {
	b := capture(t)
	var code int
	old := osExit
	osExit = func(c int) { code = c }
	defer func() { osExit = old }()

	With("component", "x").Fatal("boom", "err", "disk full")
	if code != 1 {
		t.Errorf("Fatal exited %d, want 1", code)
	}
	if got := b.String(); !strings.Contains(got, `level=ERROR msg=boom component=x err="disk full"`) {
		t.Errorf("Fatal line = %q", got)
	}
}

// TestLineFormat runs scripts/obs_smoke.sh's sed expression over a real
// line: the smoke finds each server's address this way.
func TestLineFormat(t *testing.T) {
	b := capture(t)
	With("component", "x").Info("debug server listening", "addr", "127.0.0.1:1")
	cmd := exec.Command("sed", "-n", `s/.*msg="debug server listening".* addr=\([0-9.:]*\).*/\1/p`)
	cmd.Stdin = strings.NewReader(b.String())
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("sed: %v", err)
	}
	if got := strings.TrimSpace(string(out)); got != "127.0.0.1:1" {
		t.Errorf("obs_smoke's sed read %q from %q, want 127.0.0.1:1", got, b.String())
	}
}

// TestConcurrentNoInterleave: loggers derived apart share one handler,
// so events from concurrent goroutines never tear mid-line.
func TestConcurrentNoInterleave(t *testing.T) {
	b := capture(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := With("component", "x")
			for j := 0; j < 100; j++ {
				l.Info("tick", "worker", j)
			}
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if len(lines) != 800 {
		t.Fatalf("got %d lines, want 800 (one per event)", len(lines))
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "time=") || !strings.Contains(line, " msg=tick component=x worker=") {
			t.Fatalf("torn line: %q", line)
		}
	}
}
