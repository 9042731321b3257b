// Package experiments contains one runner per table and figure of the
// paper's evaluation. Each runner takes a context plus an Env (a source of
// homes, synthetic or stored, every home's build, and a parallelism
// budget) and returns a structured result that the experiments binary,
// the runner engine and the root benchmarks consume. DESIGN.md maps every runner to its paper
// counterpart; EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"homesight/internal/dominance"
	"homesight/internal/synth"
	"homesight/internal/timeseries"
)

// Env is the shared experiment environment: the source of its homes
// (source.go), every home's build, made once on first use, and the one
// worker budget that the engine's experiments and their inner fan-outs
// (over gateways, bins or motif members) share (ForEach).
//
// What is kept per home, for the length of the run: the gateway's raw and
// active overall series over the campaign, every device's overall series
// over the longer analysis window (WeeksWeeklyMotif, six of the paper's
// eight weeks: the weekly-motif members' windows are read from it at
// minute resolution), and a handful of scalars (coverage
// flags, the Sec. 4.1b/4.2c coefficients, the Fig. 4 thresholds, the
// Def. 4 result of a weekly-cohort home) — all produced by one buildHome
// from one read of the home from the source (home.go). That Def. 4
// result is the only one the suite reads: Fig. 5, the Sec. 6.2 tables,
// the ablation and the motif dominance all take it from the build
// (Dominance). The overall series stay because the cohort selections and
// the motif-window dominance read them again and again at minute
// resolution, each as a column of 4 bytes a minute (home.go) widened only
// where read; the per-direction series, two more per device, are read
// only by the build and die with its table.
type Env struct {
	src source

	// WeeksMain is the analysis window of most experiments (paper: 4).
	WeeksMain int
	// WeeksWeeklyMotif is the weekly-motif window (paper: 6).
	WeeksWeeklyMotif int

	parallelism int
	// sem is the shared helper budget of ForEach: parallelism-1 slots,
	// drawn on by every concurrent fan-out in the Env. Sharing one budget
	// is what lets a lone dominant experiment borrow the whole budget
	// while concurrent experiments split it fairly.
	sem chan struct{}

	// built guards gws, every home's build in home order (gatewayCaches).
	built sync.Once
	gws   []*gatewayCache
}

// Option configures NewEnv. Options validate eagerly: an out-of-range
// value surfaces as a constructor error instead of a panic mid-run.
type Option func(*envConfig) error

type envConfig struct {
	synth       synth.Config
	parallelism int
	storeDir    string
}

// WithHomes sets the number of gateways (paper: 196); n must be >= 1.
func WithHomes(n int) Option {
	return func(c *envConfig) error {
		if n < 1 {
			return fmt.Errorf("experiments: WithHomes(%d): want >= 1", n)
		}
		c.synth.Homes = n
		return nil
	}
}

// WithWeeks sets the campaign length in weeks (paper: 8); n must be >= 1.
// Analysis windows (WeeksMain, WeeksWeeklyMotif) clamp down to fit.
func WithWeeks(n int) Option {
	return func(c *envConfig) error {
		if n < 1 {
			return fmt.Errorf("experiments: WithWeeks(%d): want >= 1", n)
		}
		c.synth.Weeks = n
		return nil
	}
}

// WithSeed sets the master synth seed. Every home derives its own RNG
// stream from (seed, home index), which is what lets the parallel engine
// generate homes in any order and still match the sequential run.
func WithSeed(seed int64) Option {
	return func(c *envConfig) error {
		c.synth.Seed = seed
		return nil
	}
}

// WithParallelism sets the worker budget of ForEach — the experiments the
// engine runs at once and their inner fan-outs; n must be >= 1.
// 1 (the default) means strictly sequential.
func WithParallelism(n int) Option {
	return func(c *envConfig) error {
		if n < 1 {
			return fmt.Errorf("experiments: WithParallelism(%d): want >= 1", n)
		}
		c.parallelism = n
		return nil
	}
}

// NewEnv builds an environment. Without options it mirrors the paper's
// deployment (196 homes, 8 weeks, the fixed master seed); tests and
// benchmarks scale down via WithHomes/WithWeeks. Invalid combinations are
// rejected here rather than panicking mid-run.
func NewEnv(opts ...Option) (*Env, error) {
	cfg := envConfig{parallelism: 1}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if err := cfg.synth.Validate(); err != nil {
		return nil, err
	}
	dep := synth.NewDeployment(cfg.synth)
	var src source = &synthSource{dep: dep, surveys: make([]*survey, dep.NumHomes())}
	if cfg.storeDir != "" {
		var err error
		if src, err = openStore(cfg.storeDir, dep); err != nil {
			return nil, err
		}
	}
	weeks := src.config().Weeks
	return &Env{
		src:              src,
		WeeksMain:        min(4, weeks),
		WeeksWeeklyMotif: min(6, weeks),
		parallelism:      cfg.parallelism,
		sem:              make(chan struct{}, cfg.parallelism-1),
	}, nil
}

// Close releases the partition WithStore opened; otherwise it is a no-op.
func (e *Env) Close() error { return e.src.close() }

// Parallelism returns the worker budget of ForEach.
func (e *Env) Parallelism() int { return e.parallelism }

// Campaign is what the Env serves: its homes, their grid and survey seed.
func (e *Env) Campaign() synth.Config { return e.src.config() }

// ForEach runs fn(i) for every i in [0, n), fanned out across the Env's
// shared worker budget. fn must confine its writes to per-index slots;
// callers reduce those slots in index order afterwards, which is what
// keeps parallel output byte-identical to the sequential path.
// Cancellation is checked between items — a deadline stops scheduling
// new items but never interrupts one mid-flight. On cancellation the
// returned error is non-nil and some slots are unwritten: callers must
// propagate it and never reduce over the slots.
//
// Every ForEach in the Env — the engine's over experiments and the
// experiments' own over gateways, bins or members, nested inside it —
// draws helpers from one semaphore of parallelism-1 slots. The calling
// goroutine always works, so a nested fan-out never deadlocks when the
// budget is exhausted, and a dominant experiment running alone borrows
// the whole budget the moment its neighbours finish.
func (e *Env) ForEach(ctx context.Context, n int, fn func(i int)) error {
	if e.parallelism <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return nil
	}
	var next atomic.Int64
	work := func() {
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	// The grower recruits one helper per free budget slot for as long as
	// unclaimed items remain, so budget released by a finishing fan-out
	// elsewhere in the Env is re-acquired here mid-flight.
	go func() {
		defer wg.Done()
		for int(next.Load()) < n {
			select {
			case e.sem <- struct{}{}:
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-e.sem }()
					work()
				}()
			case <-done:
				return
			case <-ctx.Done():
				return
			}
		}
	}()
	work()
	close(done)
	wg.Wait()
	return ctx.Err()
}

// gatewayCaches returns every home's build, in home order. The first
// caller builds them all, fanned over the budget; concurrent callers wait
// for that one build.
func (e *Env) gatewayCaches() []*gatewayCache {
	e.built.Do(func() {
		e.gws = make([]*gatewayCache, e.Campaign().Homes)
		// Each slot i is written by exactly one worker, and nothing reads
		// gws until the build returns.
		//homesight:ignore ctx-flow — the one build of every home: later callers share it, so the first caller's cancellation must not cut it short
		_ = e.ForEach(context.Background(), len(e.gws), func(i int) {
			//homesight:ignore ctx-flow — a home's build runs to completion by design: a half-read home must never be kept
			g, err := e.src.home(context.Background(), i)
			if err != nil { // disk corruption, not an analysis condition
				panic(fmt.Sprintf("experiments: reading home %d (try homesight store verify): %v", i, err))
			}
			e.gws[i] = e.buildHome(i, g)
		})
	})
	return e.gws
}

// home returns home i's build (gatewayCaches).
func (e *Env) home(i int) *gatewayCache { return e.gatewayCaches()[i] }

// Warm builds every home — and with each weekly-cohort home its
// dominance — fanned across the Env's budget before any experiment runs,
// so no experiment waits on the build while it holds budget slots. The
// engine calls Warm unless Engine.SkipWarm is set. Its only error is
// ctx's at entry: once started, the builds run to completion.
func (e *Env) Warm(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	e.gatewayCaches()
	return nil
}

// Dominance returns the Definition 4 result of home i under the framework
// detector over the main window (WeeksMain), as the build made it. Each
// Score carries all three coefficients (Score.Detail), so measure variants
// re-derive from it. i must be in WeeklyCohortIndexes: only those homes
// have one, and any other home gets the zero Result. Every home the
// dominance experiments ask about is in it — the daily and weekly-motif
// cohorts nest inside the weekly-main one.
func (e *Env) Dominance(i int) dominance.Result { return e.home(i).dom }

// WeeklyCohort returns the active series of homes with weekly coverage over
// the first `weeks` weeks, truncated to that span. weeks is WeeksMain or
// WeeksWeeklyMotif, the two windows the build flags coverage for.
func (e *Env) WeeklyCohort(weeks int) (ids []string, series []*timeseries.Series) {
	if weeks != e.WeeksMain && weeks != e.WeeksWeeklyMotif {
		panic(fmt.Sprintf("experiments: WeeklyCohort(%d): not WeeksMain (%d) or WeeksWeeklyMotif (%d)", weeks, e.WeeksMain, e.WeeksWeeklyMotif))
	}
	for _, gc := range e.gatewayCaches() {
		covered := gc.weeklyCoverageMain
		if weeks == e.WeeksWeeklyMotif {
			covered = gc.weeklyCoverageMotif
		}
		if !covered {
			continue
		}
		ids = append(ids, gc.id)
		series = append(series, truncate(gc.active, weeks*7))
	}
	return ids, series
}

// WeeklyCohortIndexes returns the home indices of the WeeksMain weekly-
// coverage cohort, in home order — the iteration axis of the dominance
// experiments.
func (e *Env) WeeklyCohortIndexes() []int {
	var idxs []int
	for _, gc := range e.gatewayCaches() {
		if gc.weeklyCoverageMain {
			idxs = append(idxs, gc.index)
		}
	}
	return idxs
}

// DailyCohort returns the active series of homes with daily coverage over
// the first WeeksMain weeks.
func (e *Env) DailyCohort() (ids []string, series []*timeseries.Series) {
	for _, gc := range e.gatewayCaches() {
		if !gc.dailyCoverageMain {
			continue
		}
		ids = append(ids, gc.id)
		series = append(series, truncate(gc.active, e.WeeksMain*7))
	}
	return ids, series
}

// RawOverall returns the raw overall series of home i, truncated to days.
func (e *Env) RawOverall(i, days int) *timeseries.Series {
	return truncate(e.home(i).raw, days)
}

// truncate returns a copy of the first `days` days of a kept column.
func truncate(c *column, days int) *timeseries.Series {
	return c.series(c.start, c.start.Add(time.Duration(days)*timeseries.Day))
}

// TopObservedGateways returns the indices of the k homes with the most
// observations during the first week — the paper's "most representative
// gateways" of Sec. 4.1.
func (e *Env) TopObservedGateways(k int) []int {
	gws := e.gatewayCaches()
	type pair struct{ idx, obs int }
	pairs := make([]pair, 0, len(gws))
	for i, gc := range gws {
		pairs = append(pairs, pair{i, gc.raw.observed(gc.raw.start, gc.raw.start.Add(timeseries.Week))})
	}
	// Selection sort for the top k: n is small (hundreds).
	for sel := 0; sel < k && sel < len(pairs); sel++ {
		best := sel
		for j := sel + 1; j < len(pairs); j++ {
			if pairs[j].obs > pairs[best].obs {
				best = j
			}
		}
		pairs[sel], pairs[best] = pairs[best], pairs[sel]
	}
	if k > len(pairs) {
		k = len(pairs)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = pairs[i].idx
	}
	return out
}
