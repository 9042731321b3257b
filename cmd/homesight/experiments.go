package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"homesight/internal/experiments"
	"homesight/internal/obs"
	"homesight/internal/obs/slogx"
	"homesight/internal/runner"
	"homesight/internal/telemetry"
)

// runExperiments regenerates every table and figure of the paper's
// evaluation over the full synthetic deployment (196 gateways, 8 weeks)
// and prints them in order. Redirect the output to produce the raw
// material of EXPERIMENTS.md:
//
//	homesight experiments | tee experiments_output.txt
//
// The experiments execute on the parallel runner engine; -parallel sets
// the worker count (output is byte-identical at any setting), -timeout
// bounds each experiment, and -metrics writes the per-run timing and
// cache-counter report as JSON. -homes and -weeks scale the run down for
// quick looks, and -run selects a subset of experiments (comma-separated
// ids like fig5,fig9).
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
func runExperiments(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	sh := sharedFlags(fs, 196, 8, true)
	runList := fs.String("run", "", "comma-separated experiment ids (default: all)")
	parallel := fs.Int("parallel", runtime.NumCPU(),
		"worker count for the engine and per-gateway fan-out (1 = sequential)")
	timeout := fs.Duration("timeout", 0, "per-experiment timeout (0 = none)")
	metricsPath := fs.String("metrics", "", `write run metrics JSON to this path ("-" = stderr)`)
	dataDir := fs.String("data-dir", "",
		"load persisted gateway series from this homestore directory (empty = fully synthetic)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	logger := slogx.With("component", "experiments")

	// One registry carries both layers: runner timings and Env cache
	// counters.
	reg := obs.NewRegistry()
	stop, err := sh.debugServer(logger, reg, nil)
	if err != nil {
		return err
	}
	defer stop()

	opts := []experiments.Option{
		experiments.WithHomes(sh.homes),
		experiments.WithWeeks(sh.weeks),
		experiments.WithParallelism(*parallel),
		experiments.WithRegistry(reg),
	}
	if sh.seed != 0 {
		opts = append(opts, experiments.WithSeed(sh.seed))
	}
	if *dataDir != "" {
		opts = append(opts, experiments.WithStore(*dataDir))
	}
	env, err := experiments.NewEnv(opts...)
	if err != nil {
		return fmt.Errorf("env setup: %w", err)
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
			return fmt.Errorf("experiment registration: %w", err)
		}
	}

	selected := map[string]bool{}
	for _, id := range strings.Split(*runList, ",") {
		if id = strings.TrimSpace(id); id != "" {
			if _, known := registry.Get(id); !known {
				return usagef("-run: unknown experiment id %q", id)
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

	fmt.Fprintf(stdout, "homesight experiments — %d gateways, %d weeks, seed %d\n\n",
		env.Dep.Config().Homes, env.Dep.Config().Weeks, env.Dep.Config().Seed)

	// Warming every shared cache only pays off when the full suite runs;
	// a -run subset skips the pre-pass and fills caches on demand.
	eng := runner.Engine{
		Parallelism: *parallel,
		Timeout:     *timeout,
		Obs:         runner.NewRunnerMetrics(reg),
		SkipWarm:    len(selected) > 0,
	}
	reports, metrics, runErr := eng.Run(ctx, env, exps)

	// Reports come back in registration order whatever the parallelism, so
	// stdout is byte-identical between -parallel=1 and -parallel=N. Timings
	// live in the metrics report, not here, for the same reason.
	for i, rep := range reports {
		if rep.Err != nil {
			continue
		}
		fmt.Fprintf(stdout, "=== %s — %s\n%s\n", rep.ID, exps[i].Doc(), rep.Result.Text)
	}

	// With every experiment run, evaluate the paper's qualitative claims.
	if len(selected) == 0 && runErr == nil {
		fmt.Fprintf(stdout, "=== shapes — qualitative claims\n%s\n",
			experiments.RenderShapeChecks(results.ShapeChecks()))
	}

	if err := writeMetrics(*metricsPath, metrics); err != nil {
		return fmt.Errorf("metrics write to %s: %w", *metricsPath, err)
	}
	if runErr != nil {
		return runErr
	}
	sh.holdOn(ctx, logger)
	return nil
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
