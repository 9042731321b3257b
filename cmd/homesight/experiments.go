package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
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
// The run builds every home once, then executes the experiments on the
// runner engine. -parallel is the one worker budget the experiments and
// their per-gateway fan-outs share (output is byte-identical at any
// setting), -timeout is a deadline on the whole run, and -metrics writes
// the per-run timing report as JSON. -homes and -weeks scale the run down
// for quick looks, and -run selects a subset of experiments
// (comma-separated ids like fig5,fig9).
//
// -debug-addr serves live observability (Prometheus /metrics, /healthz,
// /debug/pprof) while the run executes; -hold keeps that server up after
// the experiments finish so a scraper or profiler can attach to a short
// run. See OBSERVABILITY.md for the metric catalog.
//
// -data-dir analyses the homes one collector partition (shard-NNNN)
// holds from their persisted reports, and no others; -homes, -weeks and
// -seed name their deployment, whose survey records it uses. STORAGE.md.
func runExperiments(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	sh := sharedFlags(fs, 196, 8)
	runList := fs.String("run", "", "comma-separated experiment ids (default: all)")
	parallel := fs.Int("parallel", runtime.NumCPU(),
		"worker budget shared by the experiments and their per-gateway fan-out (1 = sequential)")
	timeout := fs.Duration("timeout", 0, "deadline on the whole run (0 = none)")
	metricsPath := fs.String("metrics", "", `write run metrics JSON to this path ("-" = stderr)`)
	dataDir := fs.String("data-dir", "",
		"analyse the homes this homestore partition holds (empty = the synthetic deployment)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	logger := slogx.With("component", "experiments")

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
	campaign := env.Campaign()
	if *dataDir != "" {
		logger.Info("store attached", "dir", *dataDir, "homes", campaign.Homes)
	}

	var results experiments.Results
	all := runner.StandardExperiments(&results)
	selected := map[string]bool{}
	for _, id := range strings.Split(*runList, ",") {
		if id = strings.TrimSpace(id); id != "" {
			if !slices.ContainsFunc(all, func(x runner.Experiment) bool { return x.ID() == id }) {
				return usagef("-run: unknown experiment id %q", id)
			}
			selected[id] = true
		}
	}
	var exps []runner.Experiment
	for _, x := range all {
		if len(selected) == 0 || selected[x.ID()] {
			exps = append(exps, x)
		}
	}

	fmt.Fprintf(stdout, "homesight experiments — %d gateways, %d weeks, seed %d\n\n",
		campaign.Homes, campaign.Weeks, campaign.Seed)

	runCtx := ctx
	if *timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	eng := runner.Engine{Obs: runner.NewRunnerMetrics(reg)}
	reports, metrics, runErr := eng.Run(runCtx, env, exps)

	// Reports come back in publication order whatever the parallelism, so
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
