package runner

import (
	"context"
	"errors"
	"fmt"
	"time"

	"homesight/internal/experiments"
	"homesight/internal/telemetry"
)

// Engine executes experiments on the Env's worker budget.
type Engine struct {
	// Parallelism is not read: the Env's budget (experiments.WithParallelism)
	// decides how many experiments run at once. The field stays because
	// bench/analysis.go sets it.
	Parallelism int
	// Obs exports each experiment's duration on a registry; nil exports
	// nothing.
	Obs *RunnerMetrics
	// Now is the clock used for wall/duration metrics; nil → time.Now.
	// Injectable so reproducibility harnesses can run the engine on a
	// fake clock.
	Now func() time.Time
	// SkipWarm disables the Env.Warm pre-pass that builds every home
	// before dispatch; the first experiment to read a home then builds
	// them all.
	SkipWarm bool
}

// now reads the engine clock.
func (g *Engine) now() time.Time {
	clock := g.Now
	if clock == nil {
		clock = time.Now
	}
	return clock()
}

// Report is one experiment's outcome.
type Report struct {
	ID       string
	Result   Result
	Err      error
	Duration time.Duration
}

// Run executes the experiments through env.ForEach and returns their
// reports in input order — each experiment writes only its own indexed
// slot, so scheduling never reorders or interleaves output. The returned
// error joins every per-experiment failure (nil when all succeeded);
// reports are complete either way, and an experiment never started
// because ctx ended reports ctx's error. A panicking experiment crashes
// the program.
//
// Unless SkipWarm is set, Run first warms the Env (Env.Warm): every home
// is built, and with it every weekly-cohort home's dominance, fanned over
// the same budget, so no experiment pays another's first-touch build.
func (g *Engine) Run(ctx context.Context, env *experiments.Env, exps []Experiment) ([]Report, telemetry.RunMetrics, error) {
	start := g.now()
	if !g.SkipWarm {
		// Its only error is the context's, and a cancelled context makes
		// every experiment below report as skipped.
		_ = env.Warm(ctx)
	}

	reports := make([]Report, len(exps))
	err := env.ForEach(ctx, len(exps), func(i int) {
		x := exps[i]
		t0 := g.now()
		res, err := x.Run(ctx, env)
		d := g.now().Sub(t0)
		if g.Obs != nil {
			g.Obs.Durations.With(x.ID()).Observe(d.Seconds())
		}
		reports[i] = Report{ID: x.ID(), Result: res, Err: err, Duration: d}
	})
	if err != nil { // ctx ended: the experiments ForEach never started say so
		for i, x := range exps {
			if reports[i].ID == "" {
				reports[i] = Report{ID: x.ID(), Err: err}
			}
		}
	}

	m := telemetry.RunMetrics{
		Parallelism: env.Parallelism(),
		WallSeconds: g.now().Sub(start).Seconds(),
	}
	var errs []error
	for _, rep := range reports {
		em := telemetry.ExperimentMetrics{ID: rep.ID, Seconds: rep.Duration.Seconds()}
		if rep.Err != nil {
			em.Err = rep.Err.Error()
			errs = append(errs, fmt.Errorf("%s: %w", rep.ID, rep.Err))
		}
		m.Experiments = append(m.Experiments, em)
	}
	return reports, m, errors.Join(errs...)
}
