// Command experiments regenerates every table and figure of the paper's
// evaluation over the full synthetic deployment (196 gateways, 8 weeks) and
// prints them in order. Redirect the output to produce the raw material of
// EXPERIMENTS.md:
//
//	go run ./cmd/experiments | tee experiments_output.txt
//
// The experiments execute on the parallel runner engine; -parallel sets the
// worker count (output is byte-identical at any setting), -timeout bounds
// each experiment, and -metrics writes the per-run timing and cache-counter
// report as JSON. Flags scale the run down for quick looks (-homes, -weeks)
// and select a subset of experiments (-run, comma-separated ids like
// fig5,fig9).
//
// -debug-addr serves live observability (Prometheus /metrics, /healthz,
// /debug/pprof) while the run executes; -hold keeps that server up after
// the experiments finish so a scraper or profiler can attach to a short
// run. See OBSERVABILITY.md for the metric catalog.
//
// -data-dir points the Env at a homestore directory written by the
// collector: gateways present in the store are analysed from the
// persisted reports (the measurement path), the rest stay synthetic.
// See STORAGE.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"homesight/internal/experiments"
	"homesight/internal/obs"
	"homesight/internal/obs/slogx"
	"homesight/internal/runner"
	"homesight/internal/telemetry"
)

func main() {
	homes := flag.Int("homes", 196, "number of gateways")
	weeks := flag.Int("weeks", 8, "campaign length in weeks")
	seed := flag.Int64("seed", 0, "master seed (default 20140317)")
	runList := flag.String("run", "", "comma-separated experiment ids (default: all)")
	parallel := flag.Int("parallel", runtime.NumCPU(),
		"worker count for the engine and per-gateway fan-out (1 = sequential)")
	timeout := flag.Duration("timeout", 0, "per-experiment timeout (0 = none)")
	metricsPath := flag.String("metrics", "", `write run metrics JSON to this path ("-" = stderr)`)
	debugAddr := flag.String("debug-addr", "",
		"serve /metrics, /healthz and /debug/pprof on this address (e.g. 127.0.0.1:8081; empty = off)")
	hold := flag.Duration("hold", 0,
		"keep the -debug-addr server up this long after the run (0 = exit immediately)")
	dataDir := flag.String("data-dir", "",
		"load persisted gateway series from this homestore directory (empty = fully synthetic)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	flag.Parse()

	logger := slogx.With("component", "experiments")
	if lvl, err := slogx.ParseLevel(*logLevel); err != nil {
		logger.Fatal("bad flag", "flag", "log-level", "err", err)
	} else {
		slogx.SetLevel(lvl)
	}

	// One registry carries both layers: runner timings and Env cache
	// counters.
	reg := obs.NewRegistry()
	if *debugAddr != "" {
		srv, err := obs.NewServer(*debugAddr, reg)
		if err != nil {
			logger.Fatal("debug server failed", "addr", *debugAddr, "err", err)
		}
		defer func() { _ = srv.Close() }()
		logger.Info("debug server listening", "addr", srv.Addr())
	}

	opts := []experiments.Option{
		experiments.WithHomes(*homes),
		experiments.WithWeeks(*weeks),
		experiments.WithParallelism(*parallel),
		experiments.WithRegistry(reg),
	}
	if *seed != 0 {
		opts = append(opts, experiments.WithSeed(*seed))
	}
	if *dataDir != "" {
		opts = append(opts, experiments.WithStore(*dataDir))
	}
	env, err := experiments.NewEnv(opts...)
	if err != nil {
		logger.Fatal("env setup failed", "err", err)
	}
	defer func() {
		if err := env.Close(); err != nil {
			logger.Error("env close failed", "err", err)
		}
	}()
	if st := env.Store(); st != nil {
		backed := 0
		for i := 0; i < env.Dep.NumHomes(); i++ {
			if env.StoreBacked(i) {
				backed++
			}
		}
		logger.Info("store attached", "dir", *dataDir,
			"gateways", len(st.Gateways()), "homes_backed", backed)
	}

	var results experiments.Results
	registry := runner.NewRegistry()
	for _, x := range runner.StandardExperiments(&results) {
		if err := registry.Register(x); err != nil {
			logger.Fatal("experiment registration failed", "err", err)
		}
	}

	selected := map[string]bool{}
	for _, id := range strings.Split(*runList, ",") {
		if id = strings.TrimSpace(id); id != "" {
			if _, known := registry.Get(id); !known {
				logger.Fatal("unknown experiment id", "id", id)
			}
			selected[id] = true
		}
	}
	var exps []runner.Experiment
	for _, x := range registry.Experiments() {
		if len(selected) > 0 && !selected[x.ID()] {
			continue
		}
		exps = append(exps, x)
	}

	fmt.Printf("homesight experiments — %d gateways, %d weeks, seed %d\n\n",
		env.Dep.Config().Homes, env.Dep.Config().Weeks, env.Dep.Config().Seed)

	// Warming every shared cache only pays off when the full suite runs;
	// a -run subset skips the pre-pass and fills caches on demand.
	eng := runner.Engine{
		Parallelism: *parallel,
		Timeout:     *timeout,
		Obs:         runner.NewRunnerMetrics(reg),
		SkipWarm:    len(selected) > 0,
	}
	reports, metrics, runErr := eng.Run(context.Background(), env, exps)

	// Reports come back in registration order whatever the parallelism, so
	// stdout is byte-identical between -parallel=1 and -parallel=N. Timings
	// live in the metrics report, not here, for the same reason.
	for i, rep := range reports {
		if rep.Err != nil {
			continue
		}
		fmt.Printf("=== %s — %s\n%s\n", rep.ID, exps[i].Doc(), rep.Result.Text)
	}

	// With every experiment run, evaluate the paper's qualitative claims.
	if len(selected) == 0 && runErr == nil {
		fmt.Printf("=== shapes — qualitative claims\n%s\n",
			experiments.RenderShapeChecks(results.ShapeChecks()))
	}

	if err := writeMetrics(*metricsPath, metrics); err != nil {
		logger.Fatal("metrics write failed", "path", *metricsPath, "err", err)
	}
	if runErr != nil {
		logger.Fatal("run failed", "err", runErr)
	}
	if *debugAddr != "" && *hold > 0 {
		logger.Info("holding debug server", "hold", *hold)
		time.Sleep(*hold)
	}
}

// writeMetrics emits the run report to the given path ("" = skip,
// "-" = stderr so it composes with stdout redirection).
func writeMetrics(path string, m telemetry.RunMetrics) error {
	switch path {
	case "":
		return nil
	case "-":
		return m.WriteJSON(os.Stderr)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.WriteJSON(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
