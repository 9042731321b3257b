// Package stationarity implements the paper's notion of strong
// stationarity (Definition 2): a series is strongly stationary for a window
// size if every pair of non-overlapping windows has correlation similarity
// above a threshold AND the two-sample Kolmogorov–Smirnov test fails to
// reject that the windows share a distribution. Unlike classical (wide-
// sense) stationarity on sliding windows, this captures calendar-framed
// repetitive behaviour.
package stationarity

import (
	"math"
	"time"

	"homesight/internal/corrsim"
	"homesight/internal/stats"
	"homesight/internal/stats/tests"
	"homesight/internal/timeseries"
)

// DefaultCorrThreshold is the paper's correlation bound for strong
// stationarity (cor > 0.6 among all window pairs).
const DefaultCorrThreshold = 0.6

// Checker evaluates strong stationarity.
type Checker struct {
	// Measure is the Definition 1 similarity (zero value = α 0.05).
	Measure corrsim.Measure
	// CorrThreshold is the pairwise similarity bound (0 → 0.6).
	CorrThreshold float64
	// Alpha is the KS significance level (0 → 0.05).
	Alpha float64
}

// Default is the paper's checker: cor > 0.6, KS at α = 0.05.
var Default = Checker{}

func (c Checker) corrThreshold() float64 {
	if c.CorrThreshold == 0 { //homesight:ignore zero-sentinel — a similarity bound of 0 accepts any pair; zero safely means "default"
		return DefaultCorrThreshold
	}
	return c.CorrThreshold
}

func (c Checker) alpha() float64 {
	if c.Alpha == 0 { //homesight:ignore zero-sentinel — α = 0 rejects nothing and is never a real level; zero safely means "default"
		return corrsim.DefaultAlpha
	}
	return c.Alpha
}

// Result describes one strong-stationarity evaluation.
type Result struct {
	// Stationary is the Definition 2 verdict.
	Stationary bool
	// Pairs is the number of window pairs examined.
	Pairs int
	// MinSimilarity is the smallest pairwise correlation similarity seen.
	MinSimilarity float64
	// SumSimilarity is the sum of the pairwise similarities, added in
	// (i, j) order with i < j: the numerator of Definition 3's average, so
	// an aggregation curve reads it here instead of computing every pair's
	// similarity a second time.
	SumSimilarity float64
	// CorrFailures counts pairs below the correlation threshold.
	CorrFailures int
	// KSFailures counts pairs whose KS test rejected distribution equality.
	KSFailures int
}

// Check evaluates Definition 2 over a set of non-overlapping windows
// (already produced by the mapping W). Fewer than two windows are
// trivially non-stationary: no repetition has been demonstrated.
func (c Checker) Check(windows [][]float64) Result {
	res := Result{MinSimilarity: 1}
	if len(windows) < 2 {
		res.MinSimilarity = 0
		return res
	}
	thr := c.corrThreshold()
	alpha := c.alpha()
	// Each window's observed values are sorted once, by radix, for every
	// KS test it takes part in.
	sorted := make([][]float64, len(windows))
	for i, w := range windows {
		sorted[i] = observed(w)
		stats.Sort(sorted[i])
	}
	for i := 0; i < len(windows); i++ {
		for j := i + 1; j < len(windows); j++ {
			res.Pairs++
			sim := c.Measure.Similarity(windows[i], windows[j])
			res.SumSimilarity += sim
			if sim < res.MinSimilarity {
				res.MinSimilarity = sim
			}
			if !(sim > thr) {
				res.CorrFailures++
			}
			ks, err := tests.KolmogorovSmirnovSorted(sorted[i], sorted[j])
			if err != nil || ks.Rejected(alpha) {
				res.KSFailures++
			}
		}
	}
	res.Stationary = res.CorrFailures == 0 && res.KSFailures == 0
	return res
}

// CheckWindows is Check over timeseries windows.
func (c Checker) CheckWindows(windows []timeseries.Window) Result {
	vals := make([][]float64, len(windows))
	for i, w := range windows {
		vals[i] = w.Values
	}
	return c.Check(vals)
}

// WeekdayResult is the per-day-of-week stationarity evaluation used for
// daily patterns (Sec. 7.1.2): all Mondays must be mutually stationary,
// all Tuesdays, and so on.
type WeekdayResult struct {
	// ByWeekday maps each weekday to its verdict; weekdays with fewer than
	// two observed windows are absent.
	ByWeekday map[time.Weekday]Result
	// StationaryDays is the number of weekdays whose group is stationary.
	StationaryDays int
}

// AnyStationary reports whether at least one weekday group is stationary —
// the paper's criterion for counting a gateway as stationary in Fig. 7.
func (r WeekdayResult) AnyStationary() bool { return r.StationaryDays > 0 }

// CheckByWeekday groups daily windows by day of week and evaluates each
// group separately.
func (c Checker) CheckByWeekday(windows []timeseries.Window) WeekdayResult {
	groups := make(map[time.Weekday][][]float64)
	for _, w := range windows {
		if !w.Observed() {
			continue
		}
		wd := w.Weekday()
		groups[wd] = append(groups[wd], w.Values)
	}
	out := WeekdayResult{ByWeekday: make(map[time.Weekday]Result)}
	for wd, g := range groups {
		if len(g) < 2 {
			continue
		}
		r := c.Check(g)
		out.ByWeekday[wd] = r
		if r.Stationary {
			out.StationaryDays++
		}
	}
	return out
}

// observed copies xs without its NaNs for the KS test, which compares
// value distributions.
func observed(xs []float64) []float64 {
	out := make([]float64, 0, len(xs))
	for _, v := range xs {
		if !math.IsNaN(v) {
			out = append(out, v)
		}
	}
	return out
}
