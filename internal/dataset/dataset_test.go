package dataset

import (
	"math"
	"testing"
	"time"

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

func TestDeviceRecordOverall(t *testing.T) {
	in := timeseries.New(mon, time.Minute, []float64{1, 2})
	out := timeseries.New(mon, time.Minute, []float64{10, 20})
	dr := DeviceRecord{In: in, Out: out}
	o := dr.Overall()
	if o.Values[0] != 11 || o.Values[1] != 22 {
		t.Errorf("overall = %v", o.Values)
	}
}
