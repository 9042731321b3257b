// Command homesight is the paper's pipeline in one program: gateways'
// per-minute counter reports are collected into homestore partitions
// (Sec. 3), and the analyses of Defs. 1-5 run over the result.
//
//	homesight <subcommand> [flags]
//
// Each subcommand is one runX function of this package; usage below
// lists them, and `homesight <subcommand> -h` lists a subcommand's
// flags. A bad command line exits 2, any other failure 1. SIGINT and
// SIGTERM end a serving or holding subcommand through its cleanup.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"time"

	"homesight/internal/obs"
	"homesight/internal/obs/slogx"
)

const usage = `usage: homesight <subcommand> [flags]

subcommands:
  experiments  every table and figure of the paper's evaluation
  collector    the ingest fleet; -demo replays a synthetic campaign through it
  store        inspect, verify, compact or serve one homestore partition

homesight <subcommand> -h lists its flags`

var commands = map[string]func(context.Context, []string, io.Writer) error{
	"experiments": runExperiments,
	"collector":   runCollector,
	"store":       runStore,
}

// run dispatches args[0] to its subcommand, which writes its report to
// stdout; logs go to stderr.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return usageError{errors.New(usage)}
	}
	cmd, ok := commands[args[0]]
	if !ok {
		return usageError{fmt.Errorf("unknown subcommand %q\n%s", args[0], usage)}
	}
	return cmd(ctx, args[1:], stdout)
}

// usageError is a command line a subcommand cannot run.
type usageError struct{ error }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// exitCode reports err on stderr and maps it to the exit status: 2 for
// -h or a bad command line, 1 for any other failure.
func exitCode(err error) int {
	if err == nil {
		return 0
	}
	if errors.Is(err, flag.ErrHelp) {
		return 2
	}
	fmt.Fprintln(os.Stderr, "homesight:", err)
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

// parseFlags parses args into fs (whose error handling must be
// flag.ContinueOnError); a bad command line is a usageError. A
// -log-level flag, when fs declares one, takes effect here.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}
	if f := fs.Lookup("log-level"); f != nil {
		var lvl slog.Level
		if err := lvl.UnmarshalText([]byte(f.Value.String())); err != nil {
			return usagef("-log-level: %w", err)
		}
		slogx.SetLevel(lvl)
	}
	return nil
}

// shared is the flags experiments and collector declare alike.
type shared struct {
	homes, weeks int
	seed         int64
	debugAddr    string
	hold         time.Duration
}

// sharedFlags declares -homes, -weeks and -seed on fs with the
// subcommand's own defaults, and -debug-addr, -log-level and -hold.
func sharedFlags(fs *flag.FlagSet, homes, weeks int) *shared {
	s := &shared{}
	fs.IntVar(&s.homes, "homes", homes, "number of gateways")
	fs.IntVar(&s.weeks, "weeks", weeks, "campaign length in weeks")
	fs.Int64Var(&s.seed, "seed", 0, "master seed (0 = 20140317)")
	fs.StringVar(&s.debugAddr, "debug-addr", "",
		"serve /metrics, /healthz and /debug/pprof on this address (empty = off)")
	fs.String("log-level", "info", "log level: debug, info, warn, error")
	fs.DurationVar(&s.hold, "hold", 0,
		"keep the process, and -debug-addr, up this long after the run (0 = exit at once)")
	return s
}

// debugServer serves reg, and api under /api/v1/ when it is non-nil, on
// -debug-addr; with no address it serves nothing. Call stop when done.
func (s *shared) debugServer(logger *slogx.Logger, reg *obs.Registry, api http.Handler) (stop func(), err error) {
	if s.debugAddr == "" {
		return func() {}, nil
	}
	var opts []obs.ServerOption
	if api != nil {
		opts = append(opts, obs.WithHandler("/api/v1/", api))
	}
	srv, err := obs.NewServer(s.debugAddr, reg, opts...)
	if err != nil {
		return nil, fmt.Errorf("debug server on %s: %w", s.debugAddr, err)
	}
	logger.Info("debug server listening", "addr", srv.Addr())
	return func() { _ = srv.Close() }, nil
}

// holdOn keeps the process up for -hold, or until ctx ends.
func (s *shared) holdOn(ctx context.Context, logger *slogx.Logger) {
	if s.hold <= 0 {
		return
	}
	logger.Info("holding for inspection", "hold", s.hold)
	t := time.NewTimer(s.hold)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
