// Package runner runs the paper's experiment suite on an
// experiments.Env. The engine dispatches the experiments through
// Env.ForEach, so they and their per-gateway fan-outs share the Env's one
// worker budget, after Env.Warm has built every home. It emits a
// structured per-run metrics report (internal/telemetry) and, when
// Engine.Obs is set, one homesight_runner_experiment_seconds series per
// experiment (OBSERVABILITY.md). Reports follow input order
// regardless of parallelism, and each experiment's computation is
// internally deterministic, so a parallel run's output is byte-identical
// to the sequential one.
package runner

import (
	"context"

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
// same Env: it reads the Env's home builds and writes only its own result.
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
