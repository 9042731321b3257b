// Package experiments contains one runner per table and figure of the
// paper's evaluation. Each runner takes a context plus an Env (a synthetic
// deployment, every home's build, and a parallelism budget) and returns a
// structured result that the experiments binary, the runner engine and the
// root benchmarks consume. DESIGN.md maps every runner to its paper
// counterpart; EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"homesight/internal/dataset"
	"homesight/internal/dominance"
	"homesight/internal/store"
	"homesight/internal/synth"
	"homesight/internal/timeseries"
)

// Env is the shared experiment environment: a deployment handle, every
// home's build, made once on first use, and the one worker budget that
// the engine's experiments and their per-gateway fan-outs share (ForEach).
//
// What is kept per home, for the length of the run: the gateway's raw and
// active overall series over the campaign, every device's overall series
// over the longer analysis window (WeeksWeeklyMotif, six of the paper's
// eight weeks: the weekly-motif members' windows are read from it at
// minute resolution), and a handful of scalars (coverage
// flags, the Sec. 4.1b/4.2c coefficients, the Fig. 4 thresholds, the
// Def. 4 result of a weekly-cohort home) — all produced by one buildHome
// from one generation or store read of the home (home.go). The overall
// series stay because the cohort selections and the motif-window
// dominance read them again and again at minute resolution; the
// per-direction series, two more per device, are read only by the build
// and die with its table.
type Env struct {
	Dep *synth.Deployment

	// WeeksMain is the analysis window of most experiments (paper: 4).
	WeeksMain int
	// WeeksWeeklyMotif is the weekly-motif window (paper: 6).
	WeeksWeeklyMotif int
	// SurveyHomes is the size of the resident survey subset (paper: 49).
	SurveyHomes int

	parallelism int
	// sem is the shared helper budget of ForEach: parallelism-1 slots,
	// drawn on by every concurrent fan-out in the Env. Sharing one budget
	// is what lets a lone dominant experiment borrow the whole budget
	// while concurrent experiments split it fairly.
	sem chan struct{}

	// built guards gws, every home's build in home order (gatewayCaches).
	built sync.Once
	gws   []*gatewayCache

	// Store backing (WithStore): homes whose gateway the store holds read
	// their traffic from disk; the rest stay synthetic. See env_store.go.
	store    *store.Store
	storeGWs map[string]bool
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
// engine runs at once and their per-gateway inner loops; n must be >= 1.
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
	e := &Env{
		Dep:              synth.NewDeployment(cfg.synth),
		WeeksMain:        4,
		WeeksWeeklyMotif: 6,
		SurveyHomes:      49,
		parallelism:      cfg.parallelism,
		sem:              make(chan struct{}, cfg.parallelism-1),
	}
	if e.WeeksWeeklyMotif > e.Dep.Config().Weeks {
		e.WeeksWeeklyMotif = e.Dep.Config().Weeks
	}
	if e.WeeksMain > e.Dep.Config().Weeks {
		e.WeeksMain = e.Dep.Config().Weeks
	}
	if cfg.storeDir != "" {
		if err := e.openStore(cfg.storeDir); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Parallelism returns the worker budget of ForEach.
func (e *Env) Parallelism() int { return e.parallelism }

// Home returns home i's inventory and reporting plan; its traffic is only
// generated if the caller asks the returned Home for it.
func (e *Env) Home(i int) *synth.Home { return e.Dep.Home(i) }

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
// experiments' own over gateways, nested inside it — draws helpers from
// one semaphore of parallelism-1 slots. The calling goroutine always
// works, so a nested fan-out never deadlocks when the budget is
// exhausted, and a dominant experiment running alone borrows the whole
// budget the moment its neighbours finish.
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
		e.gws = make([]*gatewayCache, e.Dep.NumHomes())
		// Each slot i is written by exactly one worker, and nothing reads
		// gws until the build returns.
		//homesight:ignore ctx-flow — the one build of every home: later callers share it, so the first caller's cancellation must not cut it short
		_ = e.ForEach(context.Background(), len(e.gws), func(i int) {
			h := e.Home(i)
			e.gws[i] = e.buildHome(h, e.viewOf(h))
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
// detector over the main window (WeeksMain). Each Score carries all three
// coefficients (Score.Detail), so measure variants re-derive from it. The
// build computes it once for every weekly-cohort home — the homes Fig. 5,
// the agreement, residents and ablation tables and the motif analysis ask
// about; for any other home it is detected on each call.
func (e *Env) Dominance(i int) dominance.Result {
	gc := e.home(i)
	if gc.weeklyCoverageMain {
		return gc.dom
	}
	return e.detect(gc)
}

// WeeklyCohort returns the active series of homes with weekly coverage over
// the first `weeks` weeks, truncated to that span.
func (e *Env) WeeklyCohort(weeks int) (ids []string, series []*timeseries.Series) {
	for _, gc := range e.gatewayCaches() {
		covered := gc.weeklyCoverageMain
		if weeks == e.WeeksWeeklyMotif {
			covered = gc.weeklyCoverageMotif
		}
		if weeks != e.WeeksMain && weeks != e.WeeksWeeklyMotif {
			covered = dataset.HasWeeklyCoverage(gc.raw, weeks)
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

// truncate slices a minute series to the first `days` days.
func truncate(s *timeseries.Series, days int) *timeseries.Series {
	return s.Between(s.Start, s.Start.Add(time.Duration(days)*timeseries.Day))
}

// TopObservedGateways returns the indices of the k homes with the most
// observations during the first week — the paper's "most representative
// gateways" of Sec. 4.1.
func (e *Env) TopObservedGateways(k int) []int {
	gws := e.gatewayCaches()
	type pair struct{ idx, obs int }
	pairs := make([]pair, 0, len(gws))
	for i, gc := range gws {
		pairs = append(pairs, pair{i, truncate(gc.raw, 7).ObservedCount()})
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
