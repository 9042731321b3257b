package slogx

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// Debug emits a debug event. No program logs below Info, so the method
// lives with the tests that pin the level filter.
func (l *Logger) Debug(msg string, kv ...any) { l.log(LevelDebug, msg, kv) }

// fixed installs a deterministic clock for golden-line tests.
func fixed(l *Logger) *Logger {
	l.clock = func() time.Time {
		return time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	}
	return l
}

func TestLineFormat(t *testing.T) {
	var b strings.Builder
	l := fixed(New(&b, LevelDebug))

	l.Info("listening", "addr", "127.0.0.1:7800")
	l.Warn("report dropped", "reason", "malformed", "bytes", 512)
	l.Error("dial failed", "err", errors.New("connection refused"), "backoff", 50*time.Millisecond)
	l.Debug("odd pair", "only-key")

	want := `ts=2026-08-05T12:00:00.000Z level=info msg=listening addr=127.0.0.1:7800
ts=2026-08-05T12:00:00.000Z level=warn msg="report dropped" reason=malformed bytes=512
ts=2026-08-05T12:00:00.000Z level=error msg="dial failed" err="connection refused" backoff=50ms
ts=2026-08-05T12:00:00.000Z level=debug msg="odd pair" only-key=(missing)
`
	if got := b.String(); got != want {
		t.Errorf("lines mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestLevelFiltering(t *testing.T) {
	var b strings.Builder
	l := fixed(New(&b, LevelWarn))
	l.Debug("no")
	l.Info("no")
	l.Warn("yes")
	l.Error("yes")
	if n := strings.Count(b.String(), "\n"); n != 2 {
		t.Errorf("emitted %d lines below/at LevelWarn, want 2:\n%s", n, b.String())
	}
	if !l.Enabled(LevelError) || l.Enabled(LevelInfo) {
		t.Error("Enabled disagrees with filtering")
	}
}

func TestWithBindsFields(t *testing.T) {
	var b strings.Builder
	l := fixed(New(&b, LevelInfo))
	col := l.With("component", "collector")
	col.Info("resync", "gw", "gw042")
	want := "ts=2026-08-05T12:00:00.000Z level=info msg=resync component=collector gw=gw042\n"
	if b.String() != want {
		t.Errorf("got %q, want %q", b.String(), want)
	}

	// SetLevel reaches derived loggers (shared level).
	b.Reset()
	l.SetLevel(LevelError)
	col.Info("suppressed")
	if b.String() != "" {
		t.Errorf("derived logger ignored parent SetLevel: %q", b.String())
	}
}

func TestQuotingAndKeys(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain", "plain"},
		{"", `""`},
		{"two words", `"two words"`},
		{`has"quote`, `"has\"quote"`},
		{"a=b", `"a=b"`},
		{"line\nbreak", `"line\nbreak"`},
	}
	for _, tc := range cases {
		if got := quote(tc.in); got != tc.want {
			t.Errorf("quote(%q) = %s, want %s", tc.in, got, tc.want)
		}
	}
	if got := sanitizeKey("bad key="); got != "bad_key_" {
		t.Errorf("sanitizeKey = %q", got)
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]Level{
		"debug": LevelDebug, "info": LevelInfo, "WARN": LevelWarn,
		"warning": LevelWarn, "error": LevelError,
	} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel(loud) succeeded")
	}
}

func TestFatalExits(t *testing.T) {
	var code int
	exited := false
	old := osExit
	osExit = func(c int) { code, exited = c, true }
	defer func() { osExit = old }()

	var b strings.Builder
	fixed(New(&b, LevelInfo)).Fatal("boom", "err", "x")
	if !exited || code != 1 {
		t.Errorf("Fatal exited=%v code=%d, want exit 1", exited, code)
	}
	if !strings.Contains(b.String(), "level=error msg=boom") {
		t.Errorf("Fatal line = %q", b.String())
	}
}

// TestConcurrentNoInterleave pins the single-Write contract: lines from
// concurrent goroutines never interleave mid-line.
func TestConcurrentNoInterleave(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		lines = append(lines, string(p))
		mu.Unlock()
		return len(p), nil
	})
	l := fixed(New(w, LevelInfo))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.Info("tick", "worker", j)
			}
		}()
	}
	wg.Wait()
	if len(lines) != 800 {
		t.Fatalf("got %d writes, want 800 (one per event)", len(lines))
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "ts=") || !strings.HasSuffix(line, "\n") {
			t.Fatalf("torn line: %q", line)
		}
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
