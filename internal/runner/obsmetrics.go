package runner

import "homesight/internal/obs"

// RunnerMetrics is the engine's registry-backed instrument: the live view
// of a run that RunMetrics (the -metrics JSON report) snapshots after the
// fact. Hand one to Engine.Obs to export a run on a shared registry.
type RunnerMetrics struct {
	// Durations carries one homesight_runner_experiment_seconds series
	// per experiment ID.
	Durations *obs.HistogramVec
}

// NewRunnerMetrics registers (or re-binds, idempotently) the runner
// family on reg.
func NewRunnerMetrics(reg *obs.Registry) *RunnerMetrics {
	return &RunnerMetrics{
		Durations: reg.HistogramVec("homesight_runner_experiment_seconds",
			"Wall time of one experiment run, seconds.", "experiment", nil),
	}
}
