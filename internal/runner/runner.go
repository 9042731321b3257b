// Package runner is the parallel experiment engine: a plain worker pool
// over experiments. It executes registered experiments concurrently under
// a context with per-experiment timeouts, shares the heavy intermediates
// through the experiments.Env — whose per-home builds (Env.Warm) and
// per-gateway fan-outs are where one experiment's work spreads over the
// parallelism budget — and emits a structured per-run metrics report
// (internal/telemetry). Result ordering follows registration order
// regardless of parallelism, and each experiment's computation is
// internally deterministic, so a parallel run's output is byte-identical
// to the sequential one.
//
// The engine is also instrumented live: set Engine.Obs (RunnerMetrics,
// built on internal/obs) to export per-experiment duration histograms,
// panic/timeout counters and worker occupancy on a /metrics endpoint.
// Instrumentation is always on — an engine without an explicit registry
// counts into a private one — and never touches the output path, so
// determinism is unaffected. See OBSERVABILITY.md for the catalog.
package runner

import (
	"context"
	"fmt"

	"homesight/internal/experiments"
)

// Result is an experiment's rendered output.
type Result struct {
	// Text is the report fragment printed under the experiment's header.
	Text string
}

// Experiment is the uniform unit of work the engine schedules: a stable id
// (the -run selector), a one-line doc string and a context-first runner.
// Run must be safe to call concurrently with other experiments sharing the
// same Env — all shared state goes through the Env's race-safe caches.
type Experiment interface {
	ID() string
	Doc() string
	Run(ctx context.Context, e *experiments.Env) (Result, error)
}

// funcExperiment adapts a plain function to the Experiment interface.
type funcExperiment struct {
	id, doc string
	run     func(ctx context.Context, e *experiments.Env) (Result, error)
}

func (f funcExperiment) ID() string  { return f.id }
func (f funcExperiment) Doc() string { return f.doc }
func (f funcExperiment) Run(ctx context.Context, e *experiments.Env) (Result, error) {
	return f.run(ctx, e)
}

// New wraps a function as an Experiment.
func New(id, doc string, run func(ctx context.Context, e *experiments.Env) (Result, error)) Experiment {
	return funcExperiment{id: id, doc: doc, run: run}
}

// Registry holds experiments in registration order — the order the engine
// reports results in, independent of scheduling.
type Registry struct {
	order []Experiment
	byID  map[string]Experiment
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]Experiment)}
}

// Register adds an experiment; duplicate ids are rejected so -run selectors
// stay unambiguous.
func (r *Registry) Register(x Experiment) error {
	id := x.ID()
	if id == "" {
		return fmt.Errorf("runner: experiment with empty id")
	}
	if _, dup := r.byID[id]; dup {
		return fmt.Errorf("runner: duplicate experiment id %q", id)
	}
	r.byID[id] = x
	r.order = append(r.order, x)
	return nil
}

// Experiments returns the registered experiments in registration order.
func (r *Registry) Experiments() []Experiment {
	out := make([]Experiment, len(r.order))
	copy(out, r.order)
	return out
}

// Get looks an experiment up by id.
func (r *Registry) Get(id string) (Experiment, bool) {
	x, ok := r.byID[id]
	return x, ok
}
