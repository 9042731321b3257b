package experiments

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func smallEnv(t *testing.T, parallelism int) *Env {
	t.Helper()
	e, err := NewEnv(WithHomes(8), WithWeeks(2), WithParallelism(parallelism))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestMemoPanicRetry pins the poisoning regression: a build that panics
// must not leave a permanently cached zero value. The first get panics
// through to its caller; the second get rebuilds and returns the real
// value.
func TestMemoPanicRetry(t *testing.T) {
	e := smallEnv(t, 1)
	m := newMemo[int, int](e.newCache("panic-retry-test"), e.now)

	calls := 0
	build := func() int {
		calls++
		if calls == 1 {
			panic("first build fails")
		}
		return 42
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("first get should propagate the build panic")
			}
		}()
		m.get(7, build)
	}()

	if got := m.get(7, build); got != 42 {
		t.Fatalf("second get after panic = %d, want 42 (rebuilt, not poisoned zero)", got)
	}
	if calls != 2 {
		t.Fatalf("build ran %d times, want 2 (panic, then retry)", calls)
	}
	st := e.CacheStats()["panic-retry-test"]
	if st.Misses != 2 {
		t.Errorf("misses = %d, want 2: both gets had to build", st.Misses)
	}
	if st.Hits != 0 {
		t.Errorf("hits = %d, want 0: no completed value was ever served", st.Hits)
	}
}

// TestMemoWaiterRetriesAfterPanic is the concurrent variant: a caller
// blocked on an in-flight build whose builder panics must retry (and
// rebuild) instead of returning the zero value.
func TestMemoWaiterRetriesAfterPanic(t *testing.T) {
	e := smallEnv(t, 1)
	m := newMemo[int, int](e.newCache("panic-waiter-test"), e.now)

	entered := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int64
	build := func() int {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
			panic("in-flight build fails")
		}
		return 42
	}

	go func() {
		defer func() { _ = recover() }()
		m.get(7, build)
	}()
	<-entered

	got := make(chan int, 1)
	go func() { got <- m.get(7, build) }()
	close(release)
	if v := <-got; v != 42 {
		t.Fatalf("waiter got %d, want 42 (retry after the build it blocked on panicked)", v)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("build ran %d times, want 2", n)
	}
}

// TestMemoBuildWaitCounting pins the metrics regression: a caller that
// blocks on another caller's in-flight build is contention, not cache
// warmth — it must count as a build wait, never as a hit. Only a lookup
// served from a completed entry is a hit.
func TestMemoBuildWaitCounting(t *testing.T) {
	e := smallEnv(t, 1)
	m := newMemo[int, int](e.newCache("wait-count-test"), e.now)

	entered := make(chan struct{})
	release := make(chan struct{})
	build := func() int {
		close(entered)
		<-release
		return 42
	}

	first := make(chan int, 1)
	go func() { first <- m.get(7, build) }()
	<-entered

	second := make(chan int, 1)
	go func() { second <- m.get(7, func() int { return -1 }) }()

	// The wait counter increments before the second caller parks on the
	// done channel, so once it reads 1 the caller is provably mid-wait.
	// Release the build only then: releasing earlier would let the second
	// lookup race the build's completion and (correctly) count a hit.
	for e.CacheStats()["wait-count-test"].BuildWaits == 0 {
		runtime.Gosched()
	}

	close(release)
	if v := <-first; v != 42 {
		t.Fatalf("builder got %d, want 42", v)
	}
	if v := <-second; v != 42 {
		t.Fatalf("blocked caller got %d, want the builder's 42", v)
	}

	st := e.CacheStats()["wait-count-test"]
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1 (one build)", st.Misses)
	}
	if st.BuildWaits != 1 {
		t.Errorf("build waits = %d, want 1 (the blocked caller)", st.BuildWaits)
	}
	if st.Hits != 0 {
		t.Errorf("hits = %d, want 0: blocking on an in-flight build is not a hit", st.Hits)
	}
	if st.BuildWaitSeconds < 0 {
		t.Errorf("build wait seconds = %v, want >= 0", st.BuildWaitSeconds)
	}
	if got := st.Lookups(); got != 2 {
		t.Errorf("lookups = %d, want 2 (1 miss + 1 wait)", got)
	}

	// With the entry completed, a fresh lookup is finally a hit.
	if v := m.get(7, func() int { return -1 }); v != 42 {
		t.Fatalf("post-build get = %d, want cached 42", v)
	}
	if st = e.CacheStats()["wait-count-test"]; st.Hits != 1 {
		t.Errorf("hits after completed build = %d, want 1", st.Hits)
	}
}

// TestForEachCancelledPropagates pins the silent-truncation regression:
// forEach cancelled mid-fan-out returns the context error, so callers
// never reduce over half-written slots as if they were zeros.
func TestForEachCancelledPropagates(t *testing.T) {
	e := smallEnv(t, 4)
	ctx, cancel := context.WithCancel(context.Background())

	const n = 10_000
	var written atomic.Int64
	var once sync.Once
	err := e.forEach(ctx, n, func(i int) {
		once.Do(cancel)
		written.Add(1)
	})
	if err == nil {
		t.Fatal("forEach must return the context error after mid-fan-out cancellation")
	}
	if err != context.Canceled {
		t.Fatalf("forEach error = %v, want context.Canceled", err)
	}
	if w := written.Load(); w >= n {
		t.Fatalf("all %d slots written despite cancellation at the first item", n)
	}

	// Sequential path: same contract.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	seq, err2 := NewEnv(WithHomes(4), WithWeeks(1))
	if err2 != nil {
		t.Fatal(err2)
	}
	if err := seq.forEach(ctx2, 4, func(int) { t.Error("fn ran under a cancelled context") }); err != context.Canceled {
		t.Fatalf("sequential forEach error = %v, want context.Canceled", err)
	}
}

// TestWarmCancelledPropagates: Warm is a forEach caller too — a cancelled
// warm pass must surface its error, not pretend the caches are hot.
func TestWarmCancelledPropagates(t *testing.T) {
	e := smallEnv(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.Warm(ctx); err == nil {
		t.Fatal("Warm under a cancelled context must return an error")
	}
}

// TestWarmFillsCaches: after Warm, the home-build memo holds every home
// (and with each weekly-cohort home its dominance), so experiment-time
// lookups are pure hits — no misses and no build waits, which is the
// mechanism that drives the homesight_cache_build_wait_seconds series to
// ~0 under the engine.
func TestWarmFillsCaches(t *testing.T) {
	e := smallEnv(t, 2)
	if err := e.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	warm := e.CacheStats()["home-build"]
	if warm.Misses != int64(e.Dep.NumHomes()) {
		t.Fatalf("home-build misses after Warm = %d, want %d (one build per home)",
			warm.Misses, e.Dep.NumHomes())
	}
	idxs := e.WeeklyCohortIndexes()
	if len(idxs) == 0 {
		t.Fatal("empty weekly cohort: the test would look at nothing")
	}
	for _, i := range idxs {
		if len(e.Dominance(i).All) == 0 {
			t.Errorf("home %d: dominance saw no devices", i)
		}
	}
	st := e.CacheStats()["home-build"]
	if st.Misses != warm.Misses {
		t.Errorf("post-warm lookups caused %d extra builds, want 0", st.Misses-warm.Misses)
	}
	if st.BuildWaits != warm.BuildWaits {
		t.Errorf("post-warm lookups caused %d extra build waits, want 0", st.BuildWaits-warm.BuildWaits)
	}
	if got := st.Hits - warm.Hits; got != int64(len(idxs)) {
		t.Errorf("post-warm hits = %d, want %d", got, len(idxs))
	}
}
