// Package slogx is homesight's logger: log/slog's key=value text handler
// on stderr, one process-wide level, and Fatal. Field names follow
// OBSERVABILITY.md's vocabulary, so a log line and the metric counting
// the same event carry the same keys.
package slogx

import (
	"log/slog"
	"os"
)

// level is every logger's minimum level; its zero value is INFO.
var level slog.LevelVar

// root is the handler every logger writes through; tests swap it.
var root slog.Handler = slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: &level})

// Logger is a *slog.Logger that can also Fatal.
type Logger struct{ *slog.Logger }

// With returns a logger that stamps kv on every event.
func With(kv ...any) *Logger { return &Logger{slog.New(root).With(kv...)} }

// SetLevel sets the minimum level of every logger, derived before or after.
func SetLevel(l slog.Level) { level.Set(l) }

// Fatal logs msg at ERROR and exits the process with status 1.
func (l *Logger) Fatal(msg string, kv ...any) {
	l.Error(msg, kv...)
	osExit(1)
}

var osExit = os.Exit // swapped by tests
