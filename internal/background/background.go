// Package background implements the paper's background-traffic
// characterization (Sec. 6.1): the per-device, per-direction threshold τ
// estimated as the upper whisker of the traffic boxplot, the capped
// τ_back = min(τ, 5000) used to excise background traffic before motif
// discovery, and the small/medium/large τ grouping that correlates with
// device type.
package background

import (
	"math"

	"homesight/internal/stats"
	"homesight/internal/timeseries"
)

// CapBytes is the paper's upper border for background traffic: 5000 bytes
// per minute (< 1 Kbps), consistent with and tighter than the 1 kbps cut
// of earlier work on the same testbed.
const CapBytes = 5000

// LargeBytes is the boundary above which a device's τ is considered
// "large" (the Fig. 4 tail at 40,000 bytes ≈ 5.3 Kbps).
const LargeBytes = 40000

// Group is the τ-based device grouping of Sec. 6.1.
type Group string

// τ groups: small τ <= 5000 < medium τ <= 40000 < large.
const (
	Small  Group = "small"
	Medium Group = "medium"
	Large  Group = "large"
)

// GroupOf classifies a raw (uncapped) τ.
func GroupOf(tau float64) Group {
	switch {
	case tau <= CapBytes:
		return Small
	case tau <= LargeBytes:
		return Medium
	default:
		return Large
	}
}

// EstimateTau returns the background threshold for a device's traffic
// values in one direction: the upper whisker of the Tukey boxplot. The
// whisker works because background chatter owns the bulk of the
// probability mass while active traffic surfaces as outliers (Sec. 4.1).
// Missing minutes (NaN) are skipped. It returns 0 when nothing is
// observed.
func EstimateTau(values []float64) float64 {
	tau, err := stats.UpperWhisker(values, stats.DefaultWhiskerK)
	if err != nil {
		return 0
	}
	return tau
}

// CapTau applies the paper's cap: τ_back = min(τ, 5000).
func CapTau(tau float64) float64 { return math.Min(tau, CapBytes) }

// Threshold bundles a device's per-direction background estimates.
type Threshold struct {
	// TauIn and TauOut are the raw whisker estimates per direction.
	TauIn, TauOut float64
}

// EstimateThreshold computes both directional thresholds for a device.
func EstimateThreshold(in, out *timeseries.Series) Threshold {
	return Threshold{
		TauIn:  EstimateTau(in.Values),
		TauOut: EstimateTau(out.Values),
	}
}

// Tau returns the device-level threshold used for active-traffic
// extraction: the larger directional whisker, capped at CapBytes.
func (t Threshold) Tau() float64 {
	return CapTau(math.Max(t.TauIn, t.TauOut))
}

// ActiveSeries returns the series with background removed: every value
// strictly below tau becomes zero (missing observations stay missing).
func ActiveSeries(s *timeseries.Series, tau float64) *timeseries.Series {
	return s.Threshold(tau)
}

// ActiveFraction returns the share of observed minutes that carry active
// (above-threshold) traffic — a quick burstiness diagnostic.
func ActiveFraction(s *timeseries.Series, tau float64) float64 {
	active, observed := 0, 0
	for _, v := range s.Values {
		if math.IsNaN(v) {
			continue
		}
		observed++
		if v >= tau {
			active++
		}
	}
	if observed == 0 {
		return 0
	}
	return float64(active) / float64(observed)
}
