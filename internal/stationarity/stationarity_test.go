package stationarity

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"homesight/internal/corrsim"
	"homesight/internal/timeseries"
)

var mon = time.Date(2014, 3, 17, 0, 0, 0, 0, time.UTC)

// repeatingWindows returns k windows that repeat the same diurnal shape
// with small multiplicative noise — a strongly stationary gateway.
func repeatingWindows(k, points int, noise float64, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	base := make([]float64, points)
	for i := range base {
		// A smooth bump peaking mid-window.
		x := float64(i) / float64(points-1)
		base[i] = 1000 + 50000*math.Exp(-math.Pow((x-0.7)/0.15, 2))
	}
	out := make([][]float64, k)
	for w := range out {
		vals := make([]float64, points)
		for i := range vals {
			vals[i] = base[i] * math.Exp(noise*rng.NormFloat64())
		}
		out[w] = vals
	}
	return out
}

func TestStationaryOnRepeatingPattern(t *testing.T) {
	wins := repeatingWindows(4, 21, 0.05, 1)
	res := Default.Check(wins)
	if !res.Stationary {
		t.Fatalf("repeating pattern not stationary: %+v", res)
	}
	if res.Pairs != 6 {
		t.Errorf("pairs = %d, want C(4,2)=6", res.Pairs)
	}
	if res.MinSimilarity <= DefaultCorrThreshold {
		t.Errorf("min similarity = %g, want > %g", res.MinSimilarity, DefaultCorrThreshold)
	}
}

func TestNotStationaryOnShuffledWeeks(t *testing.T) {
	// Windows with unrelated shapes: correlation fails.
	rng := rand.New(rand.NewSource(2))
	wins := make([][]float64, 4)
	for w := range wins {
		vals := make([]float64, 21)
		for i := range vals {
			vals[i] = rng.ExpFloat64() * 1e5
		}
		wins[w] = vals
	}
	res := Default.Check(wins)
	if res.Stationary {
		t.Fatalf("random windows reported stationary: %+v", res)
	}
	if res.CorrFailures == 0 {
		t.Error("expected correlation failures")
	}
}

func TestNotStationaryOnDistributionShift(t *testing.T) {
	// Same shape but one window scaled 100x: correlation stays perfect, so
	// only the KS half of Definition 2 can catch the change. Use long
	// windows so KS has power.
	wins := repeatingWindows(3, 200, 0.0, 3)
	for i := range wins[2] {
		wins[2][i] *= 100
	}
	res := Default.Check(wins)
	if res.Stationary {
		t.Fatalf("scaled window passed: %+v", res)
	}
	if res.KSFailures == 0 {
		t.Error("expected KS failures — correlation alone cannot see scaling")
	}
	if res.CorrFailures != 0 {
		t.Errorf("correlation should not fail on pure scaling, got %d failures", res.CorrFailures)
	}
}

func TestFewerThanTwoWindows(t *testing.T) {
	if Default.Check(nil).Stationary {
		t.Error("no windows must not be stationary")
	}
	if Default.Check([][]float64{{1, 2, 3}}).Stationary {
		t.Error("one window must not be stationary")
	}
}

func TestCheckWindowsAdapter(t *testing.T) {
	raw := repeatingWindows(3, 21, 0.05, 4)
	wins := make([]timeseries.Window, len(raw))
	for i, v := range raw {
		wins[i] = timeseries.Window{Start: mon.AddDate(0, 0, 7*i), Values: v, Ordinal: i}
	}
	if !Default.CheckWindows(wins).Stationary {
		t.Error("adapter changed the verdict")
	}
}

func TestCheckByWeekday(t *testing.T) {
	// Build 4 weeks of daily windows where Mondays repeat a clean pattern
	// and all other days are noise.
	rng := rand.New(rand.NewSource(5))
	var wins []timeseries.Window
	mondayShape := repeatingWindows(4, 8, 0.04, 6)
	mi := 0
	for day := 0; day < 28; day++ {
		start := mon.AddDate(0, 0, day)
		var vals []float64
		if start.Weekday() == time.Monday {
			vals = mondayShape[mi]
			mi++
		} else {
			vals = make([]float64, 8)
			for i := range vals {
				vals[i] = rng.ExpFloat64() * 1e5
			}
		}
		wins = append(wins, timeseries.Window{Start: start, Values: vals, Ordinal: day})
	}
	res := Default.CheckByWeekday(wins)
	monRes, ok := res.ByWeekday[time.Monday]
	if !ok || !monRes.Stationary {
		t.Fatalf("Mondays should be stationary: %+v", res.ByWeekday)
	}
	if res.StationaryDays < 1 || res.StationaryDays > 3 {
		t.Errorf("stationary days = %d, want ~1 (only Mondays engineered)", res.StationaryDays)
	}
}

func TestCheckByWeekdaySkipsUnobserved(t *testing.T) {
	nan := math.NaN()
	wins := []timeseries.Window{
		{Start: mon, Values: []float64{nan, nan, nan}},
		{Start: mon.AddDate(0, 0, 7), Values: []float64{nan, nan, nan}},
	}
	res := Default.CheckByWeekday(wins)
	if len(res.ByWeekday) != 0 {
		t.Errorf("unobserved windows should be skipped: %+v", res.ByWeekday)
	}
}

// TestCustomThresholds sets the one knob a Checker has, its Definition 1
// measure: at a significance level no 21-point correlation reaches, every
// pair scores 0 and fails the 0.6 bound.
func TestCustomThresholds(t *testing.T) {
	wins := repeatingWindows(4, 21, 0.05, 1)
	if !Default.Check(wins).Stationary {
		t.Fatal("repeating windows should be stationary at the paper's α")
	}
	strict := Checker{Measure: corrsim.Measure{Alpha: 1e-300}}.Check(wins)
	if strict.Stationary || strict.CorrFailures != strict.Pairs || strict.MinSimilarity != 0 {
		t.Errorf("α = 1e-300: %+v, want every pair insignificant", strict)
	}
}

// TestCheckSumSimilarity holds SumSimilarity to the (i<j)-ordered sum of
// the Definition 1 similarities, bit for bit: Definition 3's average is
// read off it instead of scoring every window pair a second time.
func TestCheckSumSimilarity(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		wins := repeatingWindows(int(seed)+2, 21, 0.6, seed)
		wins[0][3] = math.NaN() // a missing bin leaves one pair shorter
		for _, c := range []Checker{Default, {Measure: corrsim.Measure{Alpha: 0.2, Use: corrsim.UseKendall}}} {
			want := 0.0
			for i := range wins {
				for j := i + 1; j < len(wins); j++ {
					want += c.Measure.Detailed(wins[i], wins[j]).Similarity
				}
			}
			if got := c.Check(wins).SumSimilarity; math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("seed %d, %+v: SumSimilarity = %v, want %v", seed, c.Measure, got, want)
			}
		}
	}
	if r := Default.Check([][]float64{{1, 2, 3}}); r.SumSimilarity != 0 || r.Pairs != 0 {
		t.Errorf("one window: %+v, want no pairs and a zero sum", r)
	}
}
