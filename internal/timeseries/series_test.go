package timeseries

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"
)

// mon is Monday 2014-03-17 00:00 UTC, the start of the paper's collection.
var mon = time.Date(2014, 3, 17, 0, 0, 0, 0, time.UTC)

func TestSeriesBasics(t *testing.T) {
	s := New(mon, Minute, []float64{1, 2, 3})
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	if !s.End().Equal(mon.Add(3 * Minute)) {
		t.Errorf("end = %v", s.End())
	}
	if !s.TimeAt(2).Equal(mon.Add(2 * Minute)) {
		t.Errorf("TimeAt(2) = %v", s.TimeAt(2))
	}
	if s.IndexOf(mon.Add(90*time.Second)) != 1 {
		t.Errorf("IndexOf = %d, want 1", s.IndexOf(mon.Add(90*time.Second)))
	}
	if s.Total() != 6 {
		t.Errorf("total = %g", s.Total())
	}
}

func TestNewPanicsOnBadStep(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(mon, 0, nil)
}

func TestCloneIsDeep(t *testing.T) {
	s := New(mon, Minute, []float64{1, 2})
	c := s.Clone()
	c.Values[0] = 99
	if s.Values[0] != 1 {
		t.Error("Clone must not share memory")
	}
}

func TestSliceAndBetween(t *testing.T) {
	s := New(mon, time.Hour, []float64{0, 1, 2, 3, 4, 5})
	sub, err := s.Slice(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 3 || sub.Values[0] != 2 || !sub.Start.Equal(mon.Add(2*time.Hour)) {
		t.Errorf("sub = %+v", sub)
	}
	if _, err := s.Slice(4, 2); !errors.Is(err, ErrRange) {
		t.Errorf("want ErrRange, got %v", err)
	}
	b := s.Between(mon.Add(time.Hour), mon.Add(3*time.Hour))
	if b.Len() != 2 || b.Values[0] != 1 {
		t.Errorf("between = %+v", b)
	}
	// Clipping beyond the extent.
	all := s.Between(mon.Add(-Day), mon.Add(Day))
	if all.Len() != 6 {
		t.Errorf("clipped len = %d, want 6", all.Len())
	}
	empty := s.Between(mon.Add(10*time.Hour), mon.Add(12*time.Hour))
	if empty.Len() != 0 {
		t.Errorf("empty len = %d", empty.Len())
	}
}

func TestMissingHandling(t *testing.T) {
	nan := math.NaN()
	s := New(mon, Minute, []float64{1, nan, 3, nan})
	if s.ObservedCount() != 2 {
		t.Errorf("observed = %d", s.ObservedCount())
	}
	f := s.FillMissing(0)
	if f.Values[1] != 0 || f.Values[3] != 0 || f.Values[0] != 1 {
		t.Errorf("filled = %v", f.Values)
	}
	// Original untouched.
	if !math.IsNaN(s.Values[1]) {
		t.Error("FillMissing must not mutate the receiver")
	}
	if s.Total() != 4 {
		t.Errorf("total = %g, want 4 (NaNs skipped)", s.Total())
	}
}

func TestAggregate(t *testing.T) {
	s := New(mon, Minute, []float64{1, 2, 3, 4, 5, 6, 7})
	a, err := s.Aggregate(2 * Minute)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 7, 11, 7} // trailing partial bin
	for i, w := range want {
		if a.Values[i] != w {
			t.Errorf("bin %d = %g, want %g", i, a.Values[i], w)
		}
	}
	if a.Step != 2*Minute {
		t.Errorf("step = %v", a.Step)
	}
	// NaN handling: a bin of all-NaN stays NaN, mixed bins skip NaNs.
	nan := math.NaN()
	s2 := New(mon, Minute, []float64{nan, nan, 1, nan})
	a2, err := s2.Aggregate(2 * Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(a2.Values[0]) || a2.Values[1] != 1 {
		t.Errorf("nan bins = %v", a2.Values)
	}
	// Invalid bins.
	if _, err := s.Aggregate(90 * time.Second); !errors.Is(err, ErrStep) {
		t.Errorf("want ErrStep, got %v", err)
	}
	if _, err := s.Aggregate(0); !errors.Is(err, ErrStep) {
		t.Errorf("want ErrStep, got %v", err)
	}
}

func TestAggregateConservesTotalQuick(t *testing.T) {
	// Aggregation must conserve the observed total traffic for any bin size.
	err := quick.Check(func(raw []float64, binIdx uint8) bool {
		vals := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsInf(v, 0) {
				v = 0
			}
			vals[i] = math.Abs(math.Mod(v, 1e6))
		}
		s := New(mon, Minute, vals)
		bins := []time.Duration{Minute, 2 * Minute, 5 * Minute, 30 * Minute, time.Hour}
		a, err := s.Aggregate(bins[int(binIdx)%len(bins)])
		if err != nil {
			return false
		}
		return math.Abs(a.Total()-s.Total()) < 1e-6*(1+math.Abs(s.Total()))
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestThreshold(t *testing.T) {
	nan := math.NaN()
	s := New(mon, Minute, []float64{100, 5000, 4999, nan, 12000})
	out := s.Threshold(5000)
	want := []float64{0, 5000, 0, nan, 12000}
	for i, w := range want {
		if math.IsNaN(w) {
			if !math.IsNaN(out.Values[i]) {
				t.Errorf("idx %d: NaN lost", i)
			}
			continue
		}
		if out.Values[i] != w {
			t.Errorf("idx %d = %g, want %g", i, out.Values[i], w)
		}
	}
}

func TestAdd(t *testing.T) {
	nan := math.NaN()
	a := New(mon, Minute, []float64{1, nan, 3, nan})
	b := New(mon, Minute, []float64{10, 20, nan, nan})
	if err := a.Add(b); err != nil {
		t.Fatal(err)
	}
	if a.Values[0] != 11 || a.Values[1] != 20 || a.Values[2] != 3 {
		t.Errorf("sum = %v", a.Values)
	}
	if !math.IsNaN(a.Values[3]) {
		t.Error("NaN+NaN should stay NaN")
	}
	if b.Values[0] != 10 || b.Values[1] != 20 || !math.IsNaN(b.Values[2]) {
		t.Errorf("Add mutated its argument: %v", b.Values)
	}
	// Incompatible shapes: an error, and the receiver untouched.
	if err := a.Add(New(mon, time.Hour, []float64{1, 2, 3, 4})); err == nil {
		t.Error("want error for mismatched step")
	}
	if err := a.Add(New(mon, Minute, []float64{1})); err == nil {
		t.Error("want error for mismatched length")
	}
	if a.Values[0] != 11 || a.Values[1] != 20 || a.Values[2] != 3 || !math.IsNaN(a.Values[3]) {
		t.Errorf("a failed Add changed the receiver: %v", a.Values)
	}
}
