package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"homesight/internal/experiments"
	"homesight/internal/telemetry"
)

// Engine executes experiments on a bounded worker pool. The zero value runs
// sequentially with no timeout.
type Engine struct {
	// Parallelism is the worker count; values < 1 mean 1.
	Parallelism int
	// Timeout bounds each experiment's Run; 0 means no per-experiment
	// deadline (the outer ctx still applies).
	Timeout time.Duration
	// Obs receives the engine's registry-backed instruments (durations,
	// panics, timeouts, worker occupancy). nil → a process-private
	// bundle, so instrumentation is always on but exported nowhere.
	Obs *RunnerMetrics
	// Now is the clock used for wall/duration metrics; nil → time.Now.
	// Injectable so reproducibility harnesses can run the engine on a
	// fake clock.
	Now func() time.Time
	// SkipWarm disables the Env.Warm pre-pass that fills the shared
	// caches before dispatch. Set it when running a subset of the suite
	// (`homesight experiments -run`), where warming every cache would cost more
	// than the selected experiments save.
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

// metrics returns the engine's instrument bundle, defaulting privately.
func (g *Engine) metrics() *RunnerMetrics {
	if g.Obs != nil {
		return g.Obs
	}
	return fallbackMetrics()
}

// Report is one experiment's outcome.
type Report struct {
	ID       string
	Result   Result
	Err      error
	Duration time.Duration
}

// Run executes the experiments on a pool of Parallelism workers and
// returns their reports in input order — workers write only their own
// indexed slot, so scheduling never reorders or interleaves output. The
// returned error joins every per-experiment failure (nil when all
// succeeded); reports are complete either way, and an experiment never
// started because ctx ended reports ctx's error. env may be nil for
// experiments that don't need one (tests); when set, its cache counters
// are attached to the metrics.
//
// Unless SkipWarm is set, Run first warms the Env (Env.Warm): every home
// is built, and with it every weekly-cohort home's dominance, fanned over
// the Env's own budget, so no experiment pays another's first-touch build.
func (g *Engine) Run(ctx context.Context, env *experiments.Env, exps []Experiment) ([]Report, telemetry.RunMetrics, error) {
	start := g.now()
	n := len(exps)
	reports := make([]Report, n)

	if env != nil && !g.SkipWarm {
		// Its only error is the context's, and a cancelled context makes
		// every experiment below report as skipped.
		_ = env.Warm(ctx)
	}

	p := min(max(g.Parallelism, 1), n)

	// Sample the goroutine high-water mark while the pool runs. The sampler
	// is joined before metrics are read, so the measurement is race-free.
	var highWater atomic.Int64
	highWater.Store(int64(runtime.NumGoroutine()))
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if now := int64(runtime.NumGoroutine()); now > highWater.Load() {
					highWater.Store(now)
				}
			}
		}
	}()

	om := g.metrics()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				x := exps[i]
				if err := ctx.Err(); err != nil {
					reports[i] = Report{ID: x.ID(), Err: err}
					continue
				}
				om.BusyWorkers.Inc()
				t0 := g.now()
				res, err := g.runOne(ctx, env, x)
				d := g.now().Sub(t0)
				om.BusyWorkers.Dec()
				om.Durations.With(x.ID()).Observe(d.Seconds())
				reports[i] = Report{ID: x.ID(), Result: res, Err: err, Duration: d}
			}
		}()
	}
	wg.Wait()
	close(stop)
	sampler.Wait()

	m := telemetry.RunMetrics{
		Parallelism:        p,
		WallSeconds:        g.now().Sub(start).Seconds(),
		GoroutineHighWater: int(highWater.Load()),
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
	if env != nil {
		m.Caches = env.CacheStats()
	}
	return reports, m, errors.Join(errs...)
}

// runOne executes one experiment under the per-experiment deadline with
// panic containment: a panicking experiment fails its own report instead of
// tearing down the whole run.
func (g *Engine) runOne(ctx context.Context, env *experiments.Env, x Experiment) (res Result, err error) {
	if g.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, g.Timeout)
		defer cancel()
	}
	om := g.metrics()
	defer func() {
		if p := recover(); p != nil {
			om.Panics.Inc()
			err = fmt.Errorf("runner: experiment %s panicked: %v", x.ID(), p)
		}
		if errors.Is(err, context.DeadlineExceeded) {
			om.Timeouts.Inc()
		}
	}()
	return x.Run(ctx, env)
}
