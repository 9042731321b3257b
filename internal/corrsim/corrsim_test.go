package corrsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"homesight/internal/stats/corr"
)

func TestSimilarityPerfectTrend(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	y := []float64{10, 20, 30, 40, 50, 60, 70, 80}
	if got := Default.Detailed(x, y).Similarity; got != 1 {
		t.Errorf("similarity = %g, want 1", got)
	}
	// Scale invariance: Definition 1 uses evolution, not absolute values.
	y2 := make([]float64, len(x))
	for i, v := range x {
		y2[i] = v*1e6 + 42
	}
	if got := Default.Detailed(x, y2).Similarity; got != 1 {
		t.Errorf("scaled similarity = %g, want 1", got)
	}
}

func TestSimilarityInsignificantIsZero(t *testing.T) {
	// Too few points for significance at alpha = .05.
	x := []float64{1, 2, 3}
	y := []float64{2, 1, 3}
	if got := Default.Detailed(x, y).Similarity; got != 0 {
		t.Errorf("similarity = %g, want 0 (insignificant)", got)
	}
	// Independent noise: usually 0.
	rng := rand.New(rand.NewSource(1))
	zeros := 0
	for trial := 0; trial < 50; trial++ {
		a := make([]float64, 30)
		b := make([]float64, 30)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		if Default.Detailed(a, b).Similarity == 0 {
			zeros++
		}
	}
	if zeros < 35 {
		t.Errorf("independent noise yielded non-zero similarity too often: %d/50 zeros", zeros)
	}
}

func TestSimilarityNegativeCorrelationIsZero(t *testing.T) {
	// Definition 1 takes the max coefficient; a strong anti-correlation has
	// all three coefficients negative, so the similarity must be 0.
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	y := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := Default.Detailed(x, y).Similarity; got != 0 {
		t.Errorf("similarity = %g, want 0 for anti-correlated series", got)
	}
}

func TestSimilarityMonotoneNonlinearPrefersRankCoefficients(t *testing.T) {
	// Convex monotone trend: Spearman = 1 > Pearson, so Definition 1's max
	// should return exactly 1 — the "correctly identifies similar trends"
	// property the paper claims over Euclidean distance.
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = math.Exp(v / 2)
	}
	d := Default.Detailed(x, y)
	if d.Similarity != 1 {
		t.Errorf("similarity = %g, want 1 via Spearman", d.Similarity)
	}
	if d.Pearson.Coeff >= d.Spearman.Coeff {
		t.Errorf("expected Pearson (%g) < Spearman (%g)", d.Pearson.Coeff, d.Spearman.Coeff)
	}
}

func TestSimilarityConstantSeries(t *testing.T) {
	// Silent traffic (all zeros) must never be "similar" to anything.
	x := []float64{0, 0, 0, 0, 0, 0}
	y := []float64{1, 5, 2, 8, 3, 9}
	if got := Default.Detailed(x, y).Similarity; got != 0 {
		t.Errorf("similarity with constant series = %g, want 0", got)
	}
}

func TestSimilarityMissingValues(t *testing.T) {
	nan := math.NaN()
	x := []float64{1, nan, 2, 3, 4, 5, 6, 7, 8}
	y := []float64{2, 99, 4, 6, 8, nan, 12, 14, 16}
	// Complete pairs are perfectly correlated.
	if got := Default.Detailed(x, y).Similarity; got != 1 {
		t.Errorf("similarity = %g, want 1 on complete pairs", got)
	}
	d := Default.Detailed(x, y)
	if d.N != 7 {
		t.Errorf("complete pairs = %d, want 7", d.N)
	}
	// Everything missing → 0.
	allNaN := []float64{nan, nan, nan, nan}
	if got := Default.Detailed(allNaN, []float64{1, 2, 3, 4}).Similarity; got != 0 {
		t.Errorf("similarity = %g, want 0", got)
	}
}

func TestMeasureAlphaSensitivity(t *testing.T) {
	// A borderline correlation should be accepted at a loose alpha and
	// rejected at a strict one.
	rng := rand.New(rand.NewSource(6))
	var x, y []float64
	// Construct a sample whose Pearson p-value lands between 1e-4 and 0.04.
	for {
		x = x[:0]
		y = y[:0]
		for i := 0; i < 20; i++ {
			v := rng.NormFloat64()
			x = append(x, v)
			y = append(y, 0.6*v+rng.NormFloat64())
		}
		d := Measure{Alpha: 1}.Detailed(x, y)
		if d.Pearson.PValue > 1e-4 && d.Pearson.PValue < 0.04 {
			break
		}
	}
	loose := Measure{Alpha: 0.05}.Detailed(x, y).Similarity
	strict := Measure{Alpha: 1e-6}.Detailed(x, y).Similarity
	if loose == 0 {
		t.Error("loose alpha should accept the borderline correlation")
	}
	if strict != 0 {
		t.Errorf("strict alpha should reject, got %g", strict)
	}
}

func TestZeroValueMeasureUsesDefaultAlpha(t *testing.T) {
	var m Measure
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	if m.Detailed(x, x).Similarity != 1 {
		t.Error("zero-value Measure should behave like Default")
	}
}

func TestCoefficientSelection(t *testing.T) {
	// Convex monotone data: Spearman sees 1, Pearson less.
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = math.Exp(v / 2)
	}
	all := Measure{Use: UseAll}.Detailed(x, y).Similarity
	pearsonOnly := Measure{Use: UsePearson}.Detailed(x, y).Similarity
	spearmanOnly := Measure{Use: UseSpearman}.Detailed(x, y).Similarity
	if all != 1 || spearmanOnly != 1 {
		t.Errorf("all=%g spearman=%g, want 1", all, spearmanOnly)
	}
	if pearsonOnly >= 1 {
		t.Errorf("pearson-only = %g, want < 1", pearsonOnly)
	}
	// The max-of-three is never below any single coefficient's value.
	if all < pearsonOnly || all < spearmanOnly {
		t.Error("max-of-three must dominate single-coefficient variants")
	}
	// Excluded coefficients appear as never-significant in the detail.
	d := Measure{Use: UsePearson}.Detailed(x, y)
	if !math.IsNaN(d.Kendall.Coeff) || d.Kendall.PValue != 1 {
		t.Errorf("excluded Kendall leaked: %+v", d.Kendall)
	}
}

func TestSimilarityScaleInvarianceQuick(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(30)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.ExpFloat64() * 1e5
			y[i] = x[i]*0.8 + rng.ExpFloat64()*2e4
		}
		base := Default.Detailed(x, y).Similarity
		scaled := make([]float64, n)
		for i, v := range y {
			scaled[i] = v*1000 + 7 // affine positive rescaling
		}
		return math.Abs(Default.Detailed(x, scaled).Similarity-base) < 1e-9
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Error(err)
	}
}

// TestSimilarityUnderMatchesDirectMeasure checks the cache-sharing
// contract: a Detail computed with UseAll re-scored by SimilarityUnder
// must match computing each variant measure directly.
func TestSimilarityUnderMatchesDirectMeasure(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 400
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.ExpFloat64() * 1e4
		y[i] = x[i]*0.5 + rng.ExpFloat64()*5e3
		if i%37 == 0 {
			x[i] = math.NaN() // exercise the missing-pair path too
		}
	}
	full := Measure{Use: UseAll}.Detailed(x, y)
	variants := []Measure{
		{},
		{Use: UseAll},
		{Use: UsePearson},
		{Use: UseSpearman},
		{Use: UseKendall},
		{Use: UsePearson | UseKendall},
		{Alpha: 0.01},
		{Alpha: 0.2, Use: UseSpearman},
	}
	for _, m := range variants {
		want := m.Detailed(x, y).Similarity
		got := full.SimilarityUnder(m)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("SimilarityUnder(%+v) = %g, direct = %g", m, got, want)
		}
	}
}

// TestReferenceMatchesDetailed holds a Reference — one ranking of the
// gateway-like side reused across many devices — bit for bit to Detailed
// with that side as y, over devices that observe different minutes (each
// filters the shared order by its own NaN mask), a silent device and a
// shorter one.
func TestReferenceMatchesDetailed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 3000
	gw := make([]float64, n)
	for i := range gw {
		gw[i] = math.Floor(rng.ExpFloat64() * 800)
		if rng.Float64() < 0.05 {
			gw[i] = math.NaN() // the gateway did not report
		}
	}
	for _, m := range []Measure{Default, {Use: UseKendall}, {Alpha: 0.2, Use: UsePearson | UseSpearman}} {
		ref := m.Against(gw)
		for dev := 0; dev < 8; dev++ {
			x := make([]float64, n-dev*100)
			for i := range x {
				switch {
				case dev == 7:
					x[i] = 0
				case rng.Float64() < 0.1*float64(dev):
					x[i] = math.NaN()
				case rng.Float64() < 0.5:
					x[i] = math.Floor(gw[i] * rng.Float64())
				}
			}
			want, got := m.Detailed(x, gw), ref.Detailed(x)
			if got.N != want.N || got.Similarity != want.Similarity ||
				!sameResult(got.Pearson, want.Pearson) || !sameResult(got.Spearman, want.Spearman) ||
				!sameResult(got.Kendall, want.Kendall) {
				t.Fatalf("%+v device %d: Reference.Detailed = %+v, Detailed = %+v", m, dev, got, want)
			}
			if ref.Similarity(x) != want.Similarity {
				t.Fatalf("%+v device %d: Reference.Similarity differs", m, dev)
			}
		}
	}
}

func sameResult(a, b corr.Result) bool {
	return math.Float64bits(a.Coeff) == math.Float64bits(b.Coeff) &&
		math.Float64bits(a.PValue) == math.Float64bits(b.PValue) && a.N == b.N
}

func TestDetailedWarmCallAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	rng := rand.New(rand.NewSource(2))
	x, y := make([]float64, 10080), make([]float64, 10080)
	for i := range x {
		y[i] = math.Floor(rng.ExpFloat64() * 1e3)
		x[i] = math.Floor(y[i] * rng.Float64())
		if i%50 == 0 {
			x[i] = math.NaN()
		}
	}
	ref := Default.Against(y)
	Default.Detailed(x, y)
	if a := testing.AllocsPerRun(20, func() {
		Default.Detailed(x, y)
		ref.Detailed(x)
	}); a != 0 {
		t.Errorf("warm Detailed allocates %v times, want 0", a)
	}
}
