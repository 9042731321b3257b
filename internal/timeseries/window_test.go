package timeseries

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"
)

// minuteSeries returns a per-minute series of n days starting at start,
// whose value encodes the minute-of-series index.
func minuteSeries(start time.Time, days int) *Series {
	vals := make([]float64, days*24*60)
	for i := range vals {
		vals[i] = float64(i)
	}
	return New(start, Minute, vals)
}

func TestWindowSpecValidate(t *testing.T) {
	ok := WeeklySpec(8*time.Hour, 2*time.Hour)
	if err := ok.Validate(Minute); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	bad := []WindowSpec{
		{Period: Day, Bin: 0},
		{Period: Day, Bin: 90 * time.Second},                       // not multiple of minute step
		{Period: Day, Bin: 7 * time.Hour},                          // does not divide period
		{Period: Day, Bin: time.Hour, PhaseOffset: -time.Hour},     // negative phase
		{Period: Day, Bin: time.Hour, PhaseOffset: 25 * time.Hour}, // phase >= period
	}
	for i, spec := range bad {
		if err := spec.Validate(Minute); !errors.Is(err, ErrStep) {
			t.Errorf("spec %d: want ErrStep, got %v", i, err)
		}
	}
}

func TestDailyWindows(t *testing.T) {
	s := minuteSeries(mon, 3)
	ws := DailySpec(3 * time.Hour)
	wins, err := ws.Windows(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != 3 {
		t.Fatalf("got %d windows, want 3", len(wins))
	}
	if got := len(wins[0].Values); got != 8 {
		t.Errorf("points per day = %d, want 8 (paper's 3h daily binning)", got)
	}
	for i, w := range wins {
		if w.Ordinal != i {
			t.Errorf("ordinal %d = %d", i, w.Ordinal)
		}
		if !w.Start.Equal(mon.AddDate(0, 0, i)) {
			t.Errorf("window %d starts %v", i, w.Start)
		}
	}
	// First bin of day 0 sums minutes 0..179: 179*180/2 = 16110.
	if wins[0].Values[0] != 16110 {
		t.Errorf("first bin = %g, want 16110", wins[0].Values[0])
	}
}

func TestWeeklyWindowsMondayAlignment(t *testing.T) {
	// Start the series on a Wednesday: the first full Monday-anchored week
	// begins the following Monday.
	wed := mon.AddDate(0, 0, 2)
	s := minuteSeries(wed, 16)
	ws := WeeklySpec(8*time.Hour, 0)
	wins, err := ws.Windows(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != 1 {
		t.Fatalf("got %d windows, want 1 (16 days from Wed fits one full week)", len(wins))
	}
	if wins[0].Start.Weekday() != time.Monday {
		t.Errorf("week starts on %v, want Monday", wins[0].Start.Weekday())
	}
	if got := len(wins[0].Values); got != 21 {
		t.Errorf("points per week = %d, want 21 (7 days x 3 8h-bins)", got)
	}
}

func TestWeeklyWindowsPhaseOffset(t *testing.T) {
	// The paper's winning weekly aggregation: 8h bins starting at 2am.
	s := minuteSeries(mon, 15)
	ws := WeeklySpec(8*time.Hour, 2*time.Hour)
	wins, err := ws.Windows(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) < 1 {
		t.Fatal("no windows")
	}
	w0 := wins[0]
	if w0.Start.Hour() != 2 {
		t.Errorf("phase-shifted week starts at hour %d, want 2", w0.Start.Hour())
	}
	if w0.Start.Weekday() != time.Monday {
		t.Errorf("want Monday start, got %v", w0.Start.Weekday())
	}
	// Since the series itself starts at Monday 00:00, the first 2h-shifted
	// window starts the same Monday at 02:00.
	if !w0.Start.Equal(mon.Add(2 * time.Hour)) {
		t.Errorf("start = %v", w0.Start)
	}
}

func TestWindowsObservedAndWeekend(t *testing.T) {
	nanVals := make([]float64, 2*24*60)
	for i := range nanVals {
		nanVals[i] = math.NaN()
	}
	// Saturday 2014-03-22.
	sat := mon.AddDate(0, 0, 5)
	s := New(sat, Minute, nanVals)
	wins, err := DailySpec(3 * time.Hour).Windows(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != 2 {
		t.Fatalf("got %d windows", len(wins))
	}
	if wins[0].Observed() {
		t.Error("all-NaN window reported as observed")
	}
	if !wins[0].IsWeekend() || !wins[1].IsWeekend() {
		t.Error("Sat/Sun should be weekend windows")
	}
	if wins[0].Weekday() != time.Saturday {
		t.Errorf("weekday = %v", wins[0].Weekday())
	}
	workday := minuteSeries(mon, 1)
	dw, _ := DailySpec(3 * time.Hour).Windows(workday)
	if dw[0].IsWeekend() {
		t.Error("Monday is not a weekend")
	}
}

func TestWindowsConserveTraffic(t *testing.T) {
	// Sum over windows of a full-coverage series equals the series total.
	s := minuteSeries(mon, 7)
	wins, err := WeeklySpec(time.Hour, 0).Windows(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != 1 {
		t.Fatalf("want 1 window, got %d", len(wins))
	}
	sum := 0.0
	for _, v := range wins[0].Values {
		sum += v
	}
	if math.Abs(sum-s.Total()) > 1e-6 {
		t.Errorf("window sum %g != total %g", sum, s.Total())
	}
}

func TestWindowsQuickInvariants(t *testing.T) {
	// For any phase/bin combination: windows are disjoint, ordered, aligned
	// to the bin grid, and all have exactly PointsPerWindow values.
	cfg := &quick.Config{MaxCount: 40}
	err := quick.Check(func(days, binIdx, phaseIdx uint8) bool {
		nDays := 1 + int(days%20)
		bins := []time.Duration{time.Hour, 2 * time.Hour, 3 * time.Hour, 4 * time.Hour, 6 * time.Hour, 8 * time.Hour, 12 * time.Hour}
		phases := []time.Duration{0, 2 * time.Hour, 3 * time.Hour}
		spec := WindowSpec{Period: Day, Bin: bins[int(binIdx)%len(bins)], PhaseOffset: phases[int(phaseIdx)%len(phases)]}
		if spec.PhaseOffset%spec.Bin != 0 {
			spec.PhaseOffset = 0
		}
		s := minuteSeries(mon, nDays)
		wins, err := spec.Windows(s)
		if err != nil {
			return false
		}
		for i, w := range wins {
			if len(w.Values) != spec.PointsPerWindow() {
				return false
			}
			if i > 0 && !w.Start.Equal(wins[i-1].Start.Add(spec.Period)) {
				return false
			}
			if w.Start.Before(s.Start) || w.Start.Add(spec.Period).After(s.End()) {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}
