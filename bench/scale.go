package main

import "time"

// scale sizes the four workloads. defaultScale is what BENCHMARK.json's
// numbers are taken at; the smoke test runs a toy scale. Sizes are
// fixed, never derived from the host: two hosts then run the same work.
type scale struct {
	// ingest_fleet: homes stream minute by minute into an empty fleet.
	ingestHomes, ingestWeeks int
	// ingestTicksPerSecond turns the requested phase length into a fixed
	// number of virtual minutes, so every run of a seed streams exactly
	// the same reports however fast the host is.
	ingestTicksPerSecond int
	// shards is the fleet size of both ingest workloads.
	shards int

	// live_mixed: the first livePreload minutes are ingested during
	// set-up, then ticks arrive every liveTick and /live polls every
	// livePoll; every liveProbeEvery-th tick the sender reads its own
	// write back.
	liveHomes, liveWeeks int
	livePreload          int
	liveTick, livePoll   time.Duration
	liveProbeEvery       int
	// liveReconcile is how many homes the correctness check recomputes
	// offline.
	liveReconcile int

	// series_read: the store holds seriesHomes × seriesWeeks; clients
	// run closed-loop.
	seriesHomes, seriesWeeks int
	seriesClients            int

	// analysis_suite: one execution analyses analysisHomes ×
	// analysisWeeks; analysisExecsPer10s turns the requested phase
	// length into a fixed number of executions; only lists the
	// experiment ids to run (nil = the standard suite).
	analysisHomes, analysisWeeks int
	analysisExecsPer10s          int
	only                         []string

	// stagedReports is how many reports from the head of the stream the
	// traced ingest runs push through each layer in isolation.
	stagedReports int
	// probes is the sample count of the traced runs' direct per-layer
	// timings (store queries, snapshots, handler calls).
	probes int
	// microReps is the repetition count of the analysis micro-timings.
	microReps int
}

// defaultScale: see README.md ("Sizing") for how each number was
// chosen. The livePreload of 4 400 minutes puts every quantile sketch
// (QuantCap 4 096) and rank reservoir (RankCap 1 024) past saturation —
// the steady state of a deployment that has been up for months.
var defaultScale = scale{
	ingestHomes: 96, ingestWeeks: 1, ingestTicksPerSecond: 600, shards: 2,
	liveHomes: 32, liveWeeks: 1, livePreload: 4400,
	liveTick: 10 * time.Millisecond, livePoll: 20 * time.Millisecond,
	liveProbeEvery: 10, liveReconcile: 3,
	seriesHomes: 32, seriesWeeks: 1, seriesClients: 2,
	analysisHomes: 16, analysisWeeks: 2, analysisExecsPer10s: analysisDatasets,
	stagedReports: 100_000, probes: 256, microReps: 20,
}

// goldenApplies reports whether the analysis sizes are the ones the
// checked-in digests were taken at.
func (s scale) goldenApplies() bool {
	d := defaultScale
	return s.analysisHomes == d.analysisHomes && s.analysisWeeks == d.analysisWeeks && len(s.only) == 0
}
