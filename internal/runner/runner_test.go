package runner

import (
	"context"
	"errors"
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

func TestRegistryDuplicateID(t *testing.T) {
	reg := NewRegistry()
	ok := fake("a", func(context.Context) (string, error) { return "a", nil })
	if err := reg.Register(ok); err != nil {
		t.Fatalf("first register: %v", err)
	}
	if err := reg.Register(ok); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if err := reg.Register(fake("", nil)); err == nil {
		t.Fatal("empty id accepted")
	}
	if got := reg.Experiments(); len(got) != 1 || got[0].ID() != "a" {
		t.Fatalf("registry order = %v", got)
	}
	if _, found := reg.Get("a"); !found {
		t.Fatal("Get(a) missed")
	}
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
	eng := Engine{Parallelism: 4}
	reports, m, err := eng.Run(context.Background(), nil, exps)
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
		t.Errorf("peak concurrency = %d, want >= 2 with 4 workers", gotPeak)
	}
	if m.Parallelism != 4 || len(m.Experiments) != len(ids) || m.WallSeconds <= 0 {
		t.Errorf("metrics = %+v", m)
	}
	if m.GoroutineHighWater < 1 {
		t.Errorf("goroutine high water = %d", m.GoroutineHighWater)
	}
}

func TestEngineTimeout(t *testing.T) {
	exps := []Experiment{
		fake("slow", func(ctx context.Context) (string, error) {
			select {
			case <-ctx.Done():
				return "", ctx.Err()
			case <-time.After(5 * time.Second):
				return "never", nil
			}
		}),
		fake("fast", func(ctx context.Context) (string, error) { return "ok", nil }),
	}
	eng := Engine{Parallelism: 2, Timeout: 20 * time.Millisecond}
	reports, _, err := eng.Run(context.Background(), nil, exps)
	if err == nil {
		t.Fatal("timeout not reported")
	}
	if !errors.Is(reports[0].Err, context.DeadlineExceeded) {
		t.Errorf("slow err = %v, want deadline exceeded", reports[0].Err)
	}
	if reports[1].Err != nil || reports[1].Result.Text != "ok" {
		t.Errorf("fast report = %+v", reports[1])
	}
	if !strings.Contains(err.Error(), "slow") {
		t.Errorf("joined error %q should name the failing experiment", err)
	}
}

func TestEnginePanicContained(t *testing.T) {
	exps := []Experiment{
		fake("boom", func(ctx context.Context) (string, error) { panic("kaput") }),
		fake("fine", func(ctx context.Context) (string, error) { return "ok", nil }),
	}
	eng := Engine{Parallelism: 2}
	reports, _, err := eng.Run(context.Background(), nil, exps)
	if err == nil {
		t.Fatal("panic not reported")
	}
	if reports[0].Err == nil || !strings.Contains(reports[0].Err.Error(), "panicked") {
		t.Errorf("boom err = %v", reports[0].Err)
	}
	if reports[1].Err != nil || reports[1].Result.Text != "ok" {
		t.Errorf("fine report = %+v", reports[1])
	}
}

// TestEngineObsMetrics pins the registry-backed instruments against a
// run with one success, one contained panic and one deadline overrun.
func TestEngineObsMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	exps := []Experiment{
		fake("ok", func(ctx context.Context) (string, error) { return "ok", nil }),
		fake("boom", func(ctx context.Context) (string, error) { panic("kaput") }),
		fake("slow", func(ctx context.Context) (string, error) {
			select {
			case <-ctx.Done():
				return "", ctx.Err()
			case <-time.After(5 * time.Second):
				return "never", nil
			}
		}),
	}
	eng := Engine{Parallelism: 2, Timeout: 20 * time.Millisecond, Obs: NewRunnerMetrics(reg)}
	if _, _, err := eng.Run(context.Background(), nil, exps); err == nil {
		t.Fatal("run with a panic and a timeout should error")
	}
	if n := eng.Obs.Panics.Value(); n != 1 {
		t.Errorf("panics = %d, want 1", n)
	}
	if n := eng.Obs.Timeouts.Value(); n != 1 {
		t.Errorf("timeouts = %d, want 1", n)
	}
	for _, id := range []string{"ok", "boom", "slow"} {
		var n int64
		for _, c := range eng.Obs.Durations.With(id).BucketCounts() {
			n += c
		}
		if n != 1 {
			t.Errorf("duration observations for %s = %d, want 1", id, n)
		}
	}
	if v := eng.Obs.BusyWorkers.Value(); v != 0 {
		t.Errorf("busy workers after run = %g, want 0", v)
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
	eng := Engine{Parallelism: 2}
	reports, _, err := eng.Run(ctx, nil, exps)
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

func TestStandardExperimentsRegistry(t *testing.T) {
	var res experiments.Results
	reg := NewRegistry()
	for _, x := range StandardExperiments(&res) {
		if err := reg.Register(x); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"fig1", "inout", "fig2", "unitroot", "devcount", "fig3", "fig4",
		"heuristic", "fig5", "agreement", "residents", "ablation",
		"fig6", "fig7", "fig8", "stationary", "motifs"}
	got := reg.Experiments()
	if len(got) != len(want) {
		t.Fatalf("%d experiments, want %d", len(got), len(want))
	}
	for k, x := range got {
		if x.ID() != want[k] {
			t.Errorf("experiment %d = %s, want %s", k, x.ID(), want[k])
		}
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
	eng := Engine{Parallelism: 2}
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
	if len(m.Caches) == 0 {
		t.Error("cache metrics missing despite a live Env")
	}
}
