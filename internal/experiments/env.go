// Package experiments contains one runner per table and figure of the
// paper's evaluation. Each runner takes a context plus an Env (a synthetic
// deployment, race-safe shared-computation caches, and a parallelism
// budget) and returns a structured result that the experiments binary, the
// runner engine and the root benchmarks consume. DESIGN.md maps every
// runner to its paper counterpart; EXPERIMENTS.md records paper-vs-measured
// values.
package experiments

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"homesight/internal/core"
	"homesight/internal/corrsim"
	"homesight/internal/dataset"
	"homesight/internal/dominance"
	"homesight/internal/obs"
	"homesight/internal/store"
	"homesight/internal/synth"
	"homesight/internal/telemetry"
	"homesight/internal/timeseries"
)

// Env is the shared experiment environment: a deployment handle, lazily
// built race-safe caches of the heavy intermediates every experiment
// re-derives, and the parallelism budget for per-gateway fan-out.
//
// What is kept per home, for the length of the run: the gateway's raw and
// active overall series over the campaign, every device's overall series
// over the longer analysis window (WeeksWeeklyMotif, six of the paper's
// eight weeks: the weekly-motif members' windows are read from it at
// minute resolution), and a handful of scalars (coverage
// flags, the Sec. 4.1b/4.2c coefficients, the Fig. 4 thresholds) — all
// produced by one buildHome from one generation or store read of the home
// (home.go). The overall series stay because dominance, the cohort
// selections and the motif-window dominance read them again and again at
// minute resolution; the per-direction series, two more per device, are
// read only by the build and die with its view. Pair details, dominance
// results and stationarity outcomes are memoized per home on top.
type Env struct {
	Dep *synth.Deployment
	// Framework carries the paper's analysis parameters.
	Framework core.Framework

	// WeeksMain is the analysis window of most experiments (paper: 4).
	WeeksMain int
	// WeeksWeeklyMotif is the weekly-motif window (paper: 6).
	WeeksWeeklyMotif int
	// SurveyHomes is the size of the resident survey subset (paper: 49).
	SurveyHomes int

	parallelism int
	reg         *obs.Registry
	caches      map[string]*cacheMetrics
	// now is the clock behind the cache build-wait timings; injected as a
	// field so the deterministic analysis packages stay free of direct
	// time.Now calls.
	now func() time.Time
	// sem is the shared helper budget of forEach: parallelism-1 slots,
	// drawn on by every concurrent fan-out in the Env. Sharing one budget
	// is what lets a lone dominant experiment borrow the whole budget
	// while concurrent experiments split it fairly.
	sem chan struct{}

	homes *memo[int, *gatewayCache]
	gws   *memo[int, []*gatewayCache]
	pairs *memo[int, []corrsim.Detail]
	doms  *memo[int, dominance.Result]
	stat  *memo[int, gatewayStationarity]

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
	registry    *obs.Registry
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

// WithParallelism bounds the worker fan-out of per-gateway inner loops;
// n must be >= 1. 1 (the default) means strictly sequential.
func WithParallelism(n int) Option {
	return func(c *envConfig) error {
		if n < 1 {
			return fmt.Errorf("experiments: WithParallelism(%d): want >= 1", n)
		}
		c.parallelism = n
		return nil
	}
}

// WithRegistry exports the Env's cache counters on reg as
// homesight_cache_{hits,misses,evictions}_total{cache="..."} instead of
// a private registry — how cmd/experiments surfaces cache behaviour on
// /metrics. reg must be non-nil.
func WithRegistry(reg *obs.Registry) Option {
	return func(c *envConfig) error {
		if reg == nil {
			return fmt.Errorf("experiments: WithRegistry(nil)")
		}
		c.registry = reg
		return nil
	}
}

// WithConfig replaces the whole synth configuration at once (zero fields
// keep their defaults). Later WithHomes/WithWeeks/WithSeed options still
// apply on top.
func WithConfig(cfg synth.Config) Option {
	return func(c *envConfig) error {
		c.synth = cfg
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
	if cfg.registry == nil {
		cfg.registry = obs.NewRegistry()
	}
	e := &Env{
		Dep:              synth.NewDeployment(cfg.synth),
		WeeksMain:        4,
		WeeksWeeklyMotif: 6,
		SurveyHomes:      49,
		parallelism:      cfg.parallelism,
		reg:              cfg.registry,
		caches:           make(map[string]*cacheMetrics),
		now:              time.Now,
		sem:              make(chan struct{}, cfg.parallelism-1),
	}
	if e.WeeksWeeklyMotif > e.Dep.Config().Weeks {
		e.WeeksWeeklyMotif = e.Dep.Config().Weeks
	}
	if e.WeeksMain > e.Dep.Config().Weeks {
		e.WeeksMain = e.Dep.Config().Weeks
	}
	e.homes = newMemo[int, *gatewayCache](e.newCache("home-build"), e.now)
	e.gws = newMemo[int, []*gatewayCache](e.newCache("gateway-aggregates"), e.now)
	e.pairs = newMemo[int, []corrsim.Detail](e.newCache("pair-similarity"), e.now)
	e.doms = newMemo[int, dominance.Result](e.newCache("dominance"), e.now)
	e.stat = newMemo[int, gatewayStationarity](e.newCache("stationarity"), e.now)
	if cfg.storeDir != "" {
		if err := e.openStore(cfg.storeDir); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Parallelism returns the worker budget of per-gateway fan-out.
func (e *Env) Parallelism() int { return e.parallelism }

// Registry returns the registry carrying the Env's cache counters — the
// one WithRegistry supplied, or the Env's private default.
func (e *Env) Registry() *obs.Registry { return e.reg }

// CacheStats snapshots the hit/miss/build-wait counters of every shared
// cache. The map shape feeds telemetry.RunMetrics.Caches unchanged, so
// the -metrics JSON report extends the pre-registry plumbing.
func (e *Env) CacheStats() map[string]telemetry.CacheSnapshot {
	out := make(map[string]telemetry.CacheSnapshot, len(e.caches))
	for name, c := range e.caches {
		out[name] = telemetry.CacheSnapshot{
			Hits:             c.hits.Value(),
			Misses:           c.misses.Value(),
			BuildWaits:       c.waits.Value(),
			BuildWaitSeconds: c.waitSeconds.Sum(),
		}
	}
	return out
}

// cacheMetrics is one cache's registry-backed counters. The memo caches
// are build-once and never evict, so evictions is registered (the series
// exists for dashboards) but only a future bounded cache would move it.
type cacheMetrics struct {
	hits, misses, evictions, waits *obs.Counter
	waitSeconds                    *obs.Histogram
}

// newCache registers the per-cache series under the shared cache
// families, labelled cache=<name>.
func (e *Env) newCache(name string) *cacheMetrics {
	c := &cacheMetrics{
		hits: e.reg.CounterVec("homesight_cache_hits_total",
			"Cache lookups served from the cache.", "cache").With(name),
		misses: e.reg.CounterVec("homesight_cache_misses_total",
			"Cache lookups that had to build their value.", "cache").With(name),
		evictions: e.reg.CounterVec("homesight_cache_evictions_total",
			"Cache entries evicted (always 0 today: the memo caches never evict).", "cache").With(name),
		waits: e.reg.CounterVec("homesight_cache_build_waits_total",
			"Cache lookups that blocked on another caller's in-flight build.", "cache").With(name),
		waitSeconds: e.reg.HistogramVec("homesight_cache_build_wait_seconds",
			"Seconds a lookup spent blocked on another caller's in-flight cache build.",
			"cache", nil).With(name),
	}
	e.caches[name] = c
	return c
}

// Home returns home i's inventory and reporting plan; its traffic is only
// generated if the caller asks the returned Home for it.
func (e *Env) Home(i int) *synth.Home { return e.Dep.Home(i) }

// memo is a race-safe lazy cache: concurrent callers of get share one
// build per key. The first caller builds; later callers either hit a
// completed entry or block on the in-flight build — and that blocking is
// counted separately from hits (build waits, with the blocked time on a
// histogram), because a caller that stalls for the whole build is
// contention, not cache warmth. A build that panics clears its entry
// before the panic propagates, so the next caller rebuilds instead of
// reading a poisoned zero value forever.
type memo[K comparable, V any] struct {
	counter *cacheMetrics
	now     func() time.Time
	mu      sync.Mutex
	entries map[K]*memoEntry[V]
}

// memoEntry is one key's build state. done is closed when the build
// finishes, successfully or not; failed entries are deleted from the map
// before done closes, so an entry that is both in the map and done is
// always a completed value.
type memoEntry[V any] struct {
	done   chan struct{}
	v      V
	failed bool
}

func newMemo[K comparable, V any](c *cacheMetrics, now func() time.Time) *memo[K, V] {
	return &memo[K, V]{counter: c, now: now, entries: make(map[K]*memoEntry[V])}
}

func (m *memo[K, V]) get(k K, build func() V) V {
	for {
		m.mu.Lock()
		e := m.entries[k]
		if e == nil {
			e = &memoEntry[V]{done: make(chan struct{})}
			m.entries[k] = e
			m.counter.misses.Inc()
			m.mu.Unlock()
			return m.build(k, e, build)
		}
		select {
		case <-e.done:
			// In the map and done ⇒ built successfully (failed builds are
			// deleted before their done closes).
			m.counter.hits.Inc()
			m.mu.Unlock()
			return e.v
		default:
		}
		m.counter.waits.Inc()
		m.mu.Unlock()
		t0 := m.now()
		<-e.done
		m.counter.waitSeconds.Observe(m.now().Sub(t0).Seconds())
		if !e.failed {
			return e.v
		}
		// The build we blocked on panicked in its goroutine; retry — the
		// entry is gone from the map, so some caller rebuilds it.
	}
}

// build runs one entry's build outside the memo lock. On panic the
// entry is removed (the next get retries) and the panic propagates to
// this caller — the engine's per-experiment containment reports it.
func (m *memo[K, V]) build(k K, e *memoEntry[V], build func() V) V {
	ok := false
	defer func() {
		if !ok {
			m.mu.Lock()
			delete(m.entries, k)
			m.mu.Unlock()
			e.failed = true
		}
		close(e.done)
	}()
	e.v = build()
	ok = true
	return e.v
}

// forEach runs fn(i) for every i in [0, n), fanned out across the Env's
// shared helper budget. fn must confine its writes to per-index slots;
// callers reduce those slots in index order afterwards, which is what
// keeps parallel output byte-identical to the sequential path.
// Cancellation is checked between items — a deadline stops scheduling
// new items but never interrupts one mid-flight, and caches are never
// left half-built. On cancellation the returned error is non-nil and
// some slots are unwritten: callers must propagate it and never reduce
// over the slots.
//
// Scheduling is two-level: the engine's pool decides which experiments
// (and experiment shards) run, while every forEach in the Env draws
// helpers from one semaphore of parallelism-1 slots. The calling
// goroutine always works, so fan-out never deadlocks when the budget is
// exhausted (including nested fan-outs during cache builds), and a
// dominant experiment running alone borrows the whole budget the moment
// its neighbours finish.
func (e *Env) forEach(ctx context.Context, n int, fn func(i int)) error {
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

// gatewayCaches returns every home's build, in home order, building the
// missing ones on first use. Both levels go through the memo layer like
// every other shared intermediate, so concurrent first callers share one
// build per home (counted as build waits, not hits) and a panicking build
// is retried by the next caller instead of leaving a poisoned nil cache —
// under the parallel engine many experiments race to be first here.
func (e *Env) gatewayCaches() []*gatewayCache {
	return e.gws.get(0, func() []*gatewayCache {
		gws := make([]*gatewayCache, e.Dep.NumHomes())
		// The builds fan out: each slot i is written by exactly one worker,
		// and nothing reads gws until the build returns.
		//homesight:ignore ctx-flow — memoized cache build: later callers share the result, so the first caller's cancellation must not poison the cache
		_ = e.forEach(context.Background(), len(gws), func(i int) {
			gws[i] = e.home(i)
		})
		return gws
	})
}

// Warm pre-builds every heavy shared intermediate — the per-home builds,
// pairwise correlation details and dominance results — fanned across the
// Env's parallelism before any experiment runs. With
// a warm Env no experiment pays another's first-touch build or blocks
// on an in-flight one, which is what drives the
// homesight_cache_build_wait_seconds series to ~0 under the parallel
// engine. The engine calls Warm automatically unless Engine.SkipWarm is
// set (cmd/experiments sets it when -run selects a subset, where
// warming every cache would cost more than the experiments saved).
func (e *Env) Warm(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	e.gatewayCaches()
	idxs := e.WeeklyCohortIndexes()
	// Dominance pulls pair details through their own memo, so one pass
	// over the cohort fills both caches.
	return e.forEach(ctx, len(idxs), func(j int) {
		e.Dominance(idxs[j])
	})
}

// DeviceSeries returns the dominance inputs of home i: the gateway
// overall plus every device's overall series over the main analysis
// window (WeeksMain). Callers must not mutate the returned series — they
// are shared across experiments.
func (e *Env) DeviceSeries(i int) (*timeseries.Series, []dominance.DeviceSeries) {
	gc := e.home(i)
	return gc.mainGateway, gc.mainDevices
}

// PairDetails returns the memoized Definition 1 correlation details of
// every (device, gateway) series pair of home i over the main window,
// computed with all three coefficients so any measure variant can be
// re-derived via Detail.SimilarityUnder. The gateway overall is ranked
// once for all the home's devices.
func (e *Env) PairDetails(i int) []corrsim.Detail {
	return e.pairs.get(i, func() []corrsim.Detail {
		gw, devs := e.DeviceSeries(i)
		m := e.Framework.Measure()
		m.Use = corrsim.UseAll
		ref := m.Against(gw.Values)
		out := make([]corrsim.Detail, len(devs))
		for k, ds := range devs {
			out[k] = ref.Detailed(ds.Series.Values)
		}
		return out
	})
}

// Dominance returns the memoized Definition 4 result of home i under the
// framework detector over the main window. The detector reads its
// similarities from the pairwise cache, so Fig. 5, the agreement table,
// the residents table and the motif analysis all share one correlation
// pass per home.
func (e *Env) Dominance(i int) dominance.Result {
	return e.doms.get(i, func() dominance.Result {
		gw, devs := e.DeviceSeries(i)
		details := e.PairDetails(i)
		det := e.Framework.Detector()
		measure := det.Measure
		det.Similarity = func(k int, _ dominance.DeviceSeries, _ *timeseries.Series) float64 {
			return details[k].SimilarityUnder(measure)
		}
		return det.Detect(gw, devs)
	})
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
