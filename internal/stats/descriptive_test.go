package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.12g, want %.12g (tol %g)", name, got, want, tol)
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	approx(t, "mean", Mean(xs), 5, 1e-12)
	approx(t, "popvar", PopVariance(xs), 4, 1e-12)
	approx(t, "var", Variance(xs), 32.0/7.0, 1e-12)
	approx(t, "sd", StdDev(xs), math.Sqrt(32.0/7.0), 1e-12)
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Variance([]float64{1})) {
		t.Error("degenerate samples should yield NaN")
	}
}

func TestSum(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Sum(xs) != 9 {
		t.Errorf("Sum = %g, want 9", Sum(xs))
	}
}

func TestQuantileType7(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	// R type-7: quantile(1:4, .25) = 1.75, median = 2.5.
	approx(t, "q25", Quantile(xs, 0.25), 1.75, 1e-12)
	approx(t, "median", Median(xs), 2.5, 1e-12)
	approx(t, "q0", Quantile(xs, 0), 1, 1e-12)
	approx(t, "q1", Quantile(xs, 1), 4, 1e-12)
	approx(t, "single", Quantile([]float64{42}, 0.3), 42, 1e-12)
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Quantile must not reorder its input")
	}
}

func TestZScores(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	zs := ZScores(xs)
	approx(t, "mean", Mean(zs), 0, 1e-12)
	approx(t, "popvar", PopVariance(zs), 1, 1e-12)
	// Constant series should become zeros, not NaNs.
	for _, z := range ZScores([]float64{7, 7, 7}) {
		if z != 0 {
			t.Error("constant series should z-normalize to zeros")
		}
	}
}

func TestRanks(t *testing.T) {
	ranks := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		approx(t, "rank", ranks[i], want[i], 1e-12)
	}
	// All ties → everyone gets the average rank.
	for _, r := range Ranks([]float64{5, 5, 5}) {
		approx(t, "tie rank", r, 2, 1e-12)
	}
}

func TestRanksSumInvariant(t *testing.T) {
	// Sum of ranks is always n(n+1)/2 regardless of ties.
	err := quick.Check(func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) {
				xs = append(xs, math.Mod(v, 10))
			}
		}
		if len(xs) == 0 {
			return true
		}
		n := float64(len(xs))
		return math.Abs(Sum(Ranks(xs))-n*(n+1)/2) < 1e-9
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestBoxplot(t *testing.T) {
	// 1..11 plus a far outlier.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 100}
	b, err := NewBoxplot(xs, DefaultWhiskerK)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Outliers) != 1 || b.Outliers[0] != 100 {
		t.Errorf("outliers = %v, want [100]", b.Outliers)
	}
	if b.UpperWhisker != 11 {
		t.Errorf("upper whisker = %g, want 11", b.UpperWhisker)
	}
	if b.LowerWhisker != 1 {
		t.Errorf("lower whisker = %g, want 1", b.LowerWhisker)
	}
	if _, err := NewBoxplot(nil, 1.5); err != ErrEmpty {
		t.Errorf("want ErrEmpty, got %v", err)
	}
}

func TestBoxplotWhiskersAreObservations(t *testing.T) {
	err := quick.Check(func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, math.Mod(v, 1000))
			}
		}
		if len(xs) == 0 {
			return true
		}
		b, err := NewBoxplot(xs, DefaultWhiskerK)
		if err != nil {
			return false
		}
		lowerSeen, upperSeen := false, false
		for _, x := range xs {
			if x == b.LowerWhisker {
				lowerSeen = true
			}
			if x == b.UpperWhisker {
				upperSeen = true
			}
		}
		return lowerSeen && upperSeen && b.LowerWhisker <= b.UpperWhisker
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{0, 0.5, 1, 1.5, 2, 5}, 0, 2, 4)
	wantCounts := []int{1, 1, 1, 2} // 5 is out of range; 2 lands in last bin
	for i, w := range wantCounts {
		if h.Counts[i] != w {
			t.Errorf("bin %d = %d, want %d", i, h.Counts[i], w)
		}
	}
	if h.Total != 5 {
		t.Errorf("total = %d, want 5", h.Total)
	}
}

func TestKDE(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	k := NewKDE(xs, 0)
	if k == nil {
		t.Fatal("nil KDE")
	}
	// Density at the mode of a standard normal is ~0.3989.
	approx(t, "pdf(0)", k.PDF(0), 0.3989, 0.05)
	if k.PDF(0) < k.PDF(3) {
		t.Error("density should decay away from the mode")
	}
	// Integral over a wide grid should be ~1.
	const lo, hi, n = -6.0, 6.0, 601
	step := (hi - lo) / (n - 1)
	sum := 0.0
	for i := 1; i < n; i++ {
		x0, x1 := lo+float64(i-1)*step, lo+float64(i)*step
		sum += (k.PDF(x0) + k.PDF(x1)) / 2 * step
	}
	approx(t, "integral", sum, 1, 0.01)
	if NewKDE(nil, 0) != nil {
		t.Error("empty KDE should be nil")
	}
}

func TestSilvermanBandwidthConstant(t *testing.T) {
	if bw := SilvermanBandwidth([]float64{5, 5, 5, 5}); bw != 1 {
		t.Errorf("constant-series bandwidth = %g, want fallback 1", bw)
	}
}

func TestFitZipf(t *testing.T) {
	// Exact power law: value = rank^(-1.2) should recover exponent 1.2, R2 ~ 1.
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = math.Pow(float64(i+1), -1.2)
	}
	fit := FitZipf(xs)
	approx(t, "exponent", fit.Exponent, 1.2, 1e-9)
	approx(t, "r2", fit.R2, 1, 1e-9)
	if fit.N != 200 {
		t.Errorf("N = %d, want 200", fit.N)
	}
	// Uniform values are a poor power law: exponent near 0.
	flat := FitZipf([]float64{5, 5, 5, 5, 5})
	approx(t, "flat exponent", flat.Exponent, 0, 1e-9)
	// Degenerate inputs.
	if got := FitZipf([]float64{-1, 0}); got.N != 0 {
		t.Errorf("non-positive values should be ignored, got N=%d", got.N)
	}
}
