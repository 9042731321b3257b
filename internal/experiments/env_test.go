package experiments

import (
	"context"
	"slices"
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

// TestForEachCancelledPropagates pins the silent-truncation regression:
// ForEach cancelled mid-fan-out returns the context error, so callers
// never reduce over half-written slots as if they were zeros.
func TestForEachCancelledPropagates(t *testing.T) {
	e := smallEnv(t, 4)
	ctx, cancel := context.WithCancel(context.Background())

	const n = 10_000
	var written atomic.Int64
	var once sync.Once
	err := e.ForEach(ctx, n, func(i int) {
		once.Do(cancel)
		written.Add(1)
	})
	if err == nil {
		t.Fatal("ForEach must return the context error after mid-fan-out cancellation")
	}
	if err != context.Canceled {
		t.Fatalf("ForEach error = %v, want context.Canceled", err)
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
	if err := seq.ForEach(ctx2, 4, func(int) { t.Error("fn ran under a cancelled context") }); err != context.Canceled {
		t.Fatalf("sequential ForEach error = %v, want context.Canceled", err)
	}
}

// TestWarmCancelledPropagates: Warm is a ForEach caller too — a cancelled
// warm pass must surface its error, not pretend the homes are built.
func TestWarmCancelledPropagates(t *testing.T) {
	e := smallEnv(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.Warm(ctx); err == nil {
		t.Fatal("Warm under a cancelled context must return an error")
	}
}

// TestWarmFillsCaches: after Warm every home is built (and with each
// weekly-cohort home its dominance), and experiment-time lookups read
// those builds instead of making new ones.
func TestWarmFillsCaches(t *testing.T) {
	e := smallEnv(t, 2)
	if err := e.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	warm := slices.Clone(e.gws)
	if len(warm) != e.Campaign().Homes || slices.Contains(warm, nil) {
		t.Fatalf("Warm left homes unbuilt: %v for %d homes", warm, e.Campaign().Homes)
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
	for i, gc := range warm {
		if e.home(i) != gc {
			t.Errorf("home %d was built again after Warm", i)
		}
	}
}

// TestCohortsNestInWeeklyMain: every home of the daily cohort and of the
// weekly-motif cohort is in the weekly cohort of the main window, the
// only homes the build gives a Definition 4 result. Dominance and the
// motif-window dominance read that result for exactly those cohorts.
func TestCohortsNestInWeeklyMain(t *testing.T) {
	for _, weeks := range []int{2, 8} {
		for _, seed := range []int64{20140317, 20140318} {
			e, err := NewEnv(WithHomes(16), WithWeeks(weeks), WithSeed(seed))
			if err != nil {
				t.Fatal(err)
			}
			inMain := map[string]bool{}
			for _, i := range e.WeeklyCohortIndexes() {
				inMain[e.home(i).id] = true
			}
			daily, _ := e.DailyCohort()
			weekly, _ := e.WeeklyCohort(e.WeeksWeeklyMotif)
			if len(daily) == 0 || len(weekly) == 0 {
				t.Fatalf("16×%d seed %d: %d daily and %d weekly-motif homes: the test would look at nothing", weeks, seed, len(daily), len(weekly))
			}
			for _, id := range slices.Concat(daily, weekly) {
				if !inMain[id] {
					t.Errorf("16×%d seed %d: %s is in a motif cohort but not in the weekly-main one", weeks, seed, id)
				}
			}
		}
	}
}
