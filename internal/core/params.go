// Package core holds the paper's parameters: α = 0.05, stationarity bound
// 0.6, dominance φ = 0.6 (0.8 strict), motif φ = 0.8 with group fraction ¾
// and merge threshold 0.6, background cap 5000 B/min. The mechanisms live
// in their own packages, whose Default values (corrsim.Default,
// stationarity.Default, aggregate.Default, dominance.Default,
// motif.Default) already run at these parameters.
package core

import (
	"homesight/internal/background"
	"homesight/internal/corrsim"
	"homesight/internal/dominance"
	"homesight/internal/motif"
	"homesight/internal/stationarity"
)

// The paper's thresholds under one roof. Each constant aliases the
// canonical definition in the package that owns the mechanism, so core
// stays cycle-free while giving callers (experiments, cmd, telemetry) a
// single import for every parameter of Defs. 1–5 and Sec. 6.1. The
// bare-alpha rule of internal/analysis enforces that executable code
// references these names instead of the bare numbers.
const (
	// Alpha is the Definition 1 significance level (α = 0.05).
	Alpha = corrsim.DefaultAlpha
	// StationarityCorr is the Definition 2 pairwise-similarity bound (0.6).
	StationarityCorr = stationarity.DefaultCorrThreshold
	// DominancePhi is the Definition 4 dominance threshold (φ = 0.6).
	DominancePhi = dominance.DefaultPhi
	// StrictDominancePhi is the Sec. 6.2 ablation threshold (φ = 0.8).
	StrictDominancePhi = dominance.StrictPhi
	// MotifPhi is the Definition 5 individual-similarity threshold (0.8).
	MotifPhi = motif.DefaultPhi
	// MotifGroupFraction scales MotifPhi into the group threshold (¾).
	MotifGroupFraction = motif.DefaultGroupFraction
	// MotifMergeThreshold is the cross-motif combination threshold (0.6).
	MotifMergeThreshold = motif.DefaultMergeThreshold
	// BackgroundCapBytes is the Sec. 6.1 background cap (5000 B/min).
	BackgroundCapBytes = background.CapBytes
	// BackgroundLargeBytes is the Fig. 4 large-τ boundary (40000 B/min).
	BackgroundLargeBytes = background.LargeBytes
)
