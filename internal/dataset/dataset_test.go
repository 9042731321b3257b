package dataset

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"homesight/internal/devices"
	"homesight/internal/timeseries"
)

var mon = time.Date(2014, 3, 17, 0, 0, 0, 0, time.UTC)

func TestCoverageFilters(t *testing.T) {
	n := 14 * 24 * 60
	vals := make([]float64, n)
	s := timeseries.New(mon, time.Minute, vals)
	if !HasWeeklyCoverage(s, 2) || !HasDailyCoverage(s, 14) {
		t.Error("fully observed series should pass both filters")
	}
	// Blank out day 3 entirely.
	for m := 3 * 24 * 60; m < 4*24*60; m++ {
		vals[m] = math.NaN()
	}
	if HasDailyCoverage(s, 14) {
		t.Error("missing day must fail daily coverage")
	}
	if !HasWeeklyCoverage(s, 2) {
		t.Error("missing day must not fail weekly coverage")
	}
	// Blank the whole second week.
	for m := 7 * 24 * 60; m < n; m++ {
		vals[m] = math.NaN()
	}
	if HasWeeklyCoverage(s, 2) {
		t.Error("missing week must fail weekly coverage")
	}
	// Requesting more periods than the series holds fails.
	if HasWeeklyCoverage(s, 3) {
		t.Error("coverage beyond the series extent must fail")
	}
}

// TestCoverageNests: over random observation patterns, daily coverage of
// 7w days implies weekly coverage of w weeks, and weekly coverage of a
// weeks implies it for every b <= a. This nesting is what puts the daily
// and weekly-motif cohorts inside the weekly cohort of the main window.
func TestCoverageNests(t *testing.T) {
	const day = 24 * 60
	rng := rand.New(rand.NewSource(1))
	dailyHeld, weeklyOnly := 0, 0
	for trial := 0; trial < 200; trial++ {
		// Up to nine weeks, so some series fall short of the tested spans.
		days := 1 + rng.Intn(63)
		observed := []float64{0.5, 0.9, 0.98, 1}[rng.Intn(4)]
		vals := make([]float64, days*day)
		for m := range vals {
			vals[m] = math.NaN()
		}
		for d := 0; d < days; d++ {
			if rng.Float64() < observed {
				vals[d*day+rng.Intn(day)] = 1
			}
		}
		s := timeseries.New(mon, time.Minute, vals)
		for w := 1; w <= 8; w++ {
			daily, weekly := HasDailyCoverage(s, 7*w), HasWeeklyCoverage(s, w)
			if daily && !weekly {
				t.Fatalf("trial %d: daily coverage of %d days without weekly coverage of %d weeks", trial, 7*w, w)
			}
			if daily && w >= 2 {
				dailyHeld++
			}
			if weekly && !daily {
				weeklyOnly++
			}
			for b := 1; weekly && b < w; b++ {
				if !HasWeeklyCoverage(s, b) {
					t.Fatalf("trial %d: weekly coverage of %d weeks but not of %d", trial, w, b)
				}
			}
		}
	}
	if dailyHeld == 0 || weeklyOnly == 0 {
		t.Fatalf("vacuous patterns: daily coverage held %d times, weekly without daily %d times", dailyHeld, weeklyOnly)
	}
}

func TestDeviceRecordOverall(t *testing.T) {
	in := timeseries.New(mon, time.Minute, []float64{1, 2})
	out := timeseries.New(mon, time.Minute, []float64{10, 20})
	dr := NewDeviceRecord(devices.Device{}, in, out)
	if o := dr.Overall; o.Values[0] != 11 || o.Values[1] != 22 {
		t.Errorf("overall = %v", o.Values)
	}
	if in.Values[0] != 1 || in.Values[1] != 2 {
		t.Errorf("building the overall changed In: %v", in.Values)
	}
}
