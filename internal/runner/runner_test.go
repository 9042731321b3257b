package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"homesight/internal/experiments"
	"homesight/internal/obs"
)

// fake builds a test experiment from a bare run function.
func fake(id string, run func(ctx context.Context) (string, error)) Experiment {
	return New(id, "fake "+id, func(ctx context.Context, _ *experiments.Env) (Result, error) {
		text, err := run(ctx)
		return Result{Text: text}, err
	})
}

// oneHomeEnv is the smallest Env: the engine needs one for its budget,
// and SkipWarm keeps the fake experiments from building its home.
func oneHomeEnv(t *testing.T, parallelism int) *experiments.Env {
	t.Helper()
	e, err := experiments.NewEnv(
		experiments.WithHomes(1), experiments.WithWeeks(1), experiments.WithParallelism(parallelism))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEngineOrderUnderParallelism(t *testing.T) {
	// Experiments finish in reverse start order (later ones are faster);
	// reports must still come back in registration order.
	ids := []string{"e0", "e1", "e2", "e3", "e4"}
	var exps []Experiment
	var mu sync.Mutex
	running := 0
	peak := 0
	for k, id := range ids {
		delay := time.Duration(len(ids)-k) * 5 * time.Millisecond
		id := id
		exps = append(exps, fake(id, func(ctx context.Context) (string, error) {
			mu.Lock()
			running++
			if running > peak {
				peak = running
			}
			mu.Unlock()
			defer func() {
				mu.Lock()
				running--
				mu.Unlock()
			}()
			time.Sleep(delay)
			return "out:" + id, nil
		}))
	}
	eng := Engine{SkipWarm: true}
	reports, m, err := eng.Run(context.Background(), oneHomeEnv(t, 4), exps)
	if err != nil {
		t.Fatal(err)
	}
	for k, rep := range reports {
		if rep.ID != ids[k] || rep.Result.Text != "out:"+ids[k] {
			t.Errorf("report %d = %q/%q, want %s", k, rep.ID, rep.Result.Text, ids[k])
		}
		if rep.Err != nil {
			t.Errorf("report %s err = %v", rep.ID, rep.Err)
		}
	}
	mu.Lock()
	gotPeak := peak
	mu.Unlock()
	if gotPeak < 2 {
		t.Errorf("peak concurrency = %d, want >= 2 on a budget of 4", gotPeak)
	}
	if m.Parallelism != 4 || len(m.Experiments) != len(ids) || m.WallSeconds <= 0 {
		t.Errorf("metrics = %+v", m)
	}
}

// TestEngineObsMetrics pins the registry-backed instrument: one
// duration observation per experiment, failed ones included.
func TestEngineObsMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	exps := []Experiment{
		fake("ok", func(ctx context.Context) (string, error) { return "ok", nil }),
		fake("bad", func(ctx context.Context) (string, error) { return "", errors.New("bad input") }),
	}
	eng := Engine{SkipWarm: true, Obs: NewRunnerMetrics(reg)}
	if _, _, err := eng.Run(context.Background(), oneHomeEnv(t, 2), exps); err == nil || !strings.Contains(err.Error(), "bad") {
		t.Fatalf("run error = %v, want one naming the failing experiment", err)
	}
	for _, id := range []string{"ok", "bad"} {
		var n int64
		for _, c := range eng.Obs.Durations.With(id).BucketCounts() {
			n += c
		}
		if n != 1 {
			t.Errorf("duration observations for %s = %d, want 1", id, n)
		}
	}
}

func TestEngineCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	exps := []Experiment{
		fake("a", func(ctx context.Context) (string, error) { ran.Add(1); return "a", nil }),
		fake("b", func(ctx context.Context) (string, error) { ran.Add(1); return "b", nil }),
	}
	eng := Engine{SkipWarm: true}
	reports, _, err := eng.Run(ctx, oneHomeEnv(t, 2), exps)
	if err == nil {
		t.Fatal("cancelled run should error")
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("%d experiments ran on a dead context", n)
	}
	for _, rep := range reports {
		if !errors.Is(rep.Err, context.Canceled) {
			t.Errorf("report %s err = %v, want canceled", rep.ID, rep.Err)
		}
	}
}

// TestEngineNestedForEachUnderFullBudget: experiments that fan out
// through the Env draw on the budget the engine already fills with them,
// so every nested item must run exactly once and the run must return.
func TestEngineNestedForEachUnderFullBudget(t *testing.T) {
	const parallelism, items = 4, 1000
	env := oneHomeEnv(t, parallelism)
	var counts [parallelism][items]atomic.Int32
	var exps []Experiment
	for k := 0; k < parallelism; k++ {
		exps = append(exps, New(fmt.Sprintf("nested%d", k), "nested fan-out",
			func(ctx context.Context, e *experiments.Env) (Result, error) {
				err := e.ForEach(ctx, items, func(i int) { counts[k][i].Add(1) })
				return Result{}, err
			}))
	}
	eng := Engine{SkipWarm: true}
	if _, _, err := eng.Run(context.Background(), env, exps); err != nil {
		t.Fatal(err)
	}
	for k := range counts {
		for i := range counts[k] {
			if n := counts[k][i].Load(); n != 1 {
				t.Fatalf("experiment %d item %d ran %d times, want 1", k, i, n)
			}
		}
	}
}

func TestStandardExperimentsRegistry(t *testing.T) {
	want := []string{"fig1", "inout", "fig2", "unitroot", "devcount", "fig3", "fig4",
		"heuristic", "fig5", "agreement", "residents", "ablation",
		"fig6", "fig7", "fig8", "stationary", "motifs"}
	got := StandardExperiments(nil)
	if len(got) != len(want) {
		t.Fatalf("%d experiments, want %d", len(got), len(want))
	}
	seen := map[string]bool{}
	for k, x := range got {
		if x.ID() != want[k] {
			t.Errorf("experiment %d = %s, want %s", k, x.ID(), want[k])
		}
		if seen[x.ID()] {
			t.Errorf("duplicate experiment id %q: -run would be ambiguous", x.ID())
		}
		seen[x.ID()] = true
		if x.Doc() == "" {
			t.Errorf("experiment %s has no doc", x.ID())
		}
	}
}

// TestStandardSubsetAgainstEnv runs two cheap standard experiments end to
// end on a tiny deployment, checking that results land both in the reports
// and in the shared Results struct.
func TestStandardSubsetAgainstEnv(t *testing.T) {
	e, err := experiments.NewEnv(
		experiments.WithHomes(8), experiments.WithWeeks(2), experiments.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	var res experiments.Results
	var subset []Experiment
	for _, x := range StandardExperiments(&res) {
		if x.ID() == "inout" || x.ID() == "heuristic" {
			subset = append(subset, x)
		}
	}
	var eng Engine
	reports, m, err := eng.Run(context.Background(), e, subset)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 || reports[0].ID != "inout" || reports[1].ID != "heuristic" {
		t.Fatalf("reports = %+v", reports)
	}
	if res.InOut.Gateways == 0 || res.Heuristic.Devices == 0 {
		t.Error("results not recorded in the shared struct")
	}
	if reports[0].Result.Text == "" || reports[1].Result.Text == "" {
		t.Error("empty rendered output")
	}
	if m.Parallelism != 2 || len(m.Experiments) != 2 {
		t.Errorf("metrics = %+v, want the Env's budget of 2 and 2 experiments", m)
	}
}
