// Package slogx is homesight's structured logger: leveled, key=value,
// one event per line, designed so a log line and the metric counting the
// same event carry the same field names (see OBSERVABILITY.md for the
// field vocabulary). It exists instead of stdlib log.Printf because an
// operator grepping a fleet's logs needs `reason=malformed gw=gw042`,
// not prose — the homesight-vet printf-log rule enforces the migration.
//
// The line format is:
//
//	ts=2026-08-05T12:00:00.000Z level=info msg="listening" addr=127.0.0.1:7800
//
// Keys are bare; values are quoted only when they contain whitespace,
// quotes, '=' or control characters, so lines stay grep- and
// cut-friendly. Events below the logger's level are dropped before any
// formatting work.
//
// The package-level Default logger writes to stderr at LevelInfo;
// binaries lower it with -log-level style flags via SetLevel. Loggers
// are safe for concurrent use; a single Write per event keeps lines from
// interleaving on shared file descriptors.
package slogx

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Level orders event severities.
type Level int32

const (
	LevelDebug Level = iota - 1
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the lowercase level name used on the wire.
func (l Level) String() string {
	switch {
	case l <= LevelDebug:
		return "debug"
	case l == LevelInfo:
		return "info"
	case l == LevelWarn:
		return "warn"
	default:
		return "error"
	}
}

// ParseLevel maps a level name ("debug", "info", "warn", "error") to its
// Level; unknown names error.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelInfo, fmt.Errorf("slogx: unknown level %q", s)
}

// Logger emits key=value events at or above its level. Use New for a
// standalone logger or With to derive one with bound fields; the zero
// value is not usable.
type Logger struct {
	mu    *sync.Mutex // shared by every derived logger writing to w
	w     io.Writer
	level *atomic.Int32 // shared too: SetLevel reaches derived loggers
	bound string        // pre-rendered "k=v k=v" suffix of With fields
	clock func() time.Time
}

// New returns a logger writing to w at the given minimum level.
func New(w io.Writer, level Level) *Logger {
	l := &Logger{mu: &sync.Mutex{}, w: w, level: &atomic.Int32{}, clock: time.Now}
	l.level.Store(int32(level))
	return l
}

// Default is the process-wide logger: stderr at LevelInfo.
var Default = New(os.Stderr, LevelInfo)

// SetLevel changes the minimum level of this logger and every logger
// derived from it with With.
func (l *Logger) SetLevel(level Level) { l.level.Store(int32(level)) }

// Enabled reports whether events at level would be emitted.
func (l *Logger) Enabled(level Level) bool { return level >= Level(l.level.Load()) }

// With returns a logger that appends the given fields to every event —
// the way a subsystem stamps its identity ("component=collector") once.
func (l *Logger) With(kv ...any) *Logger {
	child := *l
	var b strings.Builder
	b.WriteString(l.bound)
	appendFields(&b, kv)
	child.bound = b.String()
	return &child
}

// Info emits an info event.
func (l *Logger) Info(msg string, kv ...any) { l.log(LevelInfo, msg, kv) }

// Warn emits a warning event.
func (l *Logger) Warn(msg string, kv ...any) { l.log(LevelWarn, msg, kv) }

// Error emits an error event.
func (l *Logger) Error(msg string, kv ...any) { l.log(LevelError, msg, kv) }

// Fatal emits an error event and exits the process with status 1 — the
// structured replacement for log.Fatal in package main.
func (l *Logger) Fatal(msg string, kv ...any) {
	l.log(LevelError, msg, kv)
	osExit(1)
}

// osExit is swapped out by tests.
var osExit = os.Exit

func (l *Logger) log(level Level, msg string, kv []any) {
	if !l.Enabled(level) {
		return
	}
	var b strings.Builder
	b.WriteString("ts=")
	b.WriteString(l.clock().UTC().Format("2006-01-02T15:04:05.000Z"))
	b.WriteString(" level=")
	b.WriteString(level.String())
	b.WriteString(" msg=")
	b.WriteString(quote(msg))
	b.WriteString(l.bound)
	appendFields(&b, kv)
	b.WriteByte('\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	_, _ = io.WriteString(l.w, b.String()) // logging must never fail the caller
}

// appendFields renders " k=v" pairs. An odd trailing key gets the value
// "(missing)" rather than panicking: a malformed log call must still log.
func appendFields(b *strings.Builder, kv []any) {
	for i := 0; i < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok {
			key = fmt.Sprint(kv[i])
		}
		b.WriteByte(' ')
		b.WriteString(sanitizeKey(key))
		b.WriteByte('=')
		if i+1 < len(kv) {
			b.WriteString(formatValue(kv[i+1]))
		} else {
			b.WriteString("(missing)")
		}
	}
}

// sanitizeKey keeps keys bare-token safe: whitespace and '=' become '_'.
func sanitizeKey(k string) string {
	if !strings.ContainsAny(k, " \t\n=\"") {
		return k
	}
	return strings.Map(func(r rune) rune {
		switch r {
		case ' ', '\t', '\n', '=', '"':
			return '_'
		}
		return r
	}, k)
}

// formatValue renders one value, quoting only when needed.
func formatValue(v any) string {
	switch x := v.(type) {
	case string:
		return quote(x)
	case error:
		if x == nil {
			return "<nil>"
		}
		return quote(x.Error())
	case fmt.Stringer:
		return quote(x.String())
	case time.Duration:
		return x.String()
	}
	return quote(fmt.Sprint(v))
}

// quote wraps s in strconv quoting only when it would otherwise break
// the k=v grammar.
func quote(s string) string {
	if s == "" {
		return `""`
	}
	if strings.ContainsAny(s, " \t\n=\"\\") || hasControl(s) {
		return strconv.Quote(s)
	}
	return s
}

func hasControl(s string) bool {
	for _, r := range s {
		if r < ' ' || r == 0x7f {
			return true
		}
	}
	return false
}

// With derives from the Default logger.
func With(kv ...any) *Logger { return Default.With(kv...) }

// SetLevel sets the Default logger's minimum level.
func SetLevel(level Level) { Default.SetLevel(level) }
