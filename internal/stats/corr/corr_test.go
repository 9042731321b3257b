package corr

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

func TestPearsonPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(x, y)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "r", r.Coeff, 1, 1e-12)
	if r.PValue > 1e-9 {
		t.Errorf("perfect correlation p-value = %g, want ~0", r.PValue)
	}
	neg, _ := Pearson(x, []float64{5, 4, 3, 2, 1})
	approx(t, "r-neg", neg.Coeff, -1, 1e-12)
}

func TestPearsonReference(t *testing.T) {
	// By hand: sxy=16, sxx=17.5, syy=70/3 → r = 16/sqrt(1225/3) = 0.7917947;
	// t = r sqrt(4/(1-r^2)) = 2.593, two-sided p with 4 df = 0.060511.
	x := []float64{1, 2, 3, 4, 5, 6}
	y := []float64{2, 1, 4, 3, 7, 5}
	r, err := Pearson(x, y)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "r", r.Coeff, 16/math.Sqrt(1225.0/3.0), 1e-12)
	approx(t, "p", r.PValue, 0.060511, 1e-5)
	if !r.Significant(0.1) || r.Significant(0.05) {
		t.Error("significance thresholds misbehave")
	}
}

func TestPearsonConstantSeries(t *testing.T) {
	r, err := Pearson([]float64{3, 3, 3, 3}, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(r.Coeff) || r.PValue != 1 || r.Significant(0.05) {
		t.Errorf("constant series should be NaN/never-significant, got %+v", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1, 2}, []float64{1}); err != ErrLength {
		t.Errorf("want ErrLength, got %v", err)
	}
	if _, err := Pearson([]float64{1, 2}, []float64{1, 2}); err != ErrTooShort {
		t.Errorf("want ErrTooShort, got %v", err)
	}
}

func TestSpearmanReference(t *testing.T) {
	// Monotone but nonlinear: Spearman sees perfection, Pearson does not.
	x := []float64{1, 2, 3, 4, 5, 6, 7}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = math.Exp(v)
	}
	s, err := Spearman(x, y)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "rho", s.Coeff, 1, 1e-12)
	p, _ := Pearson(x, y)
	if p.Coeff >= 0.99 {
		t.Error("Pearson should be < 1 on convex monotone data")
	}
	// rho = 1 - 6*sum(d^2)/(n(n^2-1)); d = (-1,1,-1,-1,2) → 1 - 48/120 = 0.6.
	s2, _ := Spearman([]float64{1, 2, 3, 4, 5}, []float64{2, 1, 4, 5, 3})
	approx(t, "rho2", s2.Coeff, 0.6, 1e-12)
}

func TestSpearmanTies(t *testing.T) {
	// With ties, Spearman equals Pearson on average ranks.
	x := []float64{1, 1, 2, 3, 3, 3}
	y := []float64{2, 3, 3, 5, 5, 6}
	s, err := Spearman(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(s.Coeff) || s.Coeff <= 0.8 {
		t.Errorf("tied monotone data should have high rho, got %g", s.Coeff)
	}
}

func TestKendallReference(t *testing.T) {
	// R: cor.test(c(1,2,3,4,5), c(3,4,1,2,5), method="kendall") → tau = 0.2.
	k, err := Kendall([]float64{1, 2, 3, 4, 5}, []float64{3, 4, 1, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "tau", k.Coeff, 0.2, 1e-12)
	// Perfect agreement and disagreement.
	up, _ := Kendall([]float64{1, 2, 3, 4}, []float64{10, 20, 30, 40})
	approx(t, "tau up", up.Coeff, 1, 1e-12)
	down, _ := Kendall([]float64{1, 2, 3, 4}, []float64{9, 7, 5, 3})
	approx(t, "tau down", down.Coeff, -1, 1e-12)
}

func TestKendallTauBWithTies(t *testing.T) {
	// By hand: conc=4, disc=0, one x-tie, one y-tie →
	// tau-b = 4 / sqrt((6-1)(6-1)) = 0.8.
	k, err := Kendall([]float64{1, 1, 2, 3}, []float64{1, 2, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "tau-b", k.Coeff, 0.8, 1e-12)
	// All-tied x is degenerate.
	deg, _ := Kendall([]float64{2, 2, 2, 2}, []float64{1, 2, 3, 4})
	if !math.IsNaN(deg.Coeff) || deg.PValue != 1 {
		t.Errorf("degenerate tau should be NaN/p=1, got %+v", deg)
	}
}

func TestCorrelationsAgreeOnIndependentNoise(t *testing.T) {
	// Independent noise should rarely be significant; check the p-values are
	// roughly uniform by counting rejections at alpha = 0.2 over many trials.
	rng := rand.New(rand.NewSource(42))
	trials, rejected := 200, 0
	for i := 0; i < trials; i++ {
		n := 50
		x := make([]float64, n)
		y := make([]float64, n)
		for j := range x {
			x[j] = rng.NormFloat64()
			y[j] = rng.NormFloat64()
		}
		r, _ := Pearson(x, y)
		if r.Significant(0.2) {
			rejected++
		}
	}
	frac := float64(rejected) / float64(trials)
	if frac < 0.08 || frac > 0.35 {
		t.Errorf("rejection rate at alpha=.2 was %.2f, want ~0.2", frac)
	}
}

func TestCoefficientsWithinBoundsQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = float64(rng.Intn(5))
			y[i] = rng.NormFloat64()
		}
		for _, f := range []func(a, b []float64) (Result, error){Pearson, Spearman, Kendall} {
			r, err := f(x, y)
			if err != nil {
				return false
			}
			if !math.IsNaN(r.Coeff) && (r.Coeff < -1-1e-12 || r.Coeff > 1+1e-12) {
				return false
			}
			if r.PValue < 0 || r.PValue > 1 {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestACF(t *testing.T) {
	// AR(1)-ish deterministic series: x_t = 0.9 x_{t-1} has geometric ACF.
	n := 500
	x := make([]float64, n)
	rng := rand.New(rand.NewSource(3))
	x[0] = rng.NormFloat64()
	for i := 1; i < n; i++ {
		x[i] = 0.9*x[i-1] + 0.1*rng.NormFloat64()
	}
	acf := ACF(x, 5)
	approx(t, "lag0", acf[0], 1, 1e-12)
	if acf[1] < 0.7 {
		t.Errorf("AR(1) lag-1 ACF = %g, want > 0.7", acf[1])
	}
	if acf[1] < acf[3] {
		t.Error("ACF should decay for AR(1)")
	}
	// Constant series.
	c := ACF([]float64{5, 5, 5, 5}, 2)
	if c[0] != 1 || c[1] != 0 {
		t.Errorf("constant ACF = %v", c)
	}
	// Empty series is all zeros.
	for _, v := range ACF(nil, 3) {
		if v != 0 {
			t.Error("empty ACF should be zeros")
		}
	}
}

func TestCCFDetectsLag(t *testing.T) {
	// y is x delayed by 3 → CCF should peak at lag +3 with x[t+3] ~ y[t]...
	// Using R's convention ccf(x,y) peaks at the lag where x leads y.
	n := 300
	rng := rand.New(rand.NewSource(4))
	base := make([]float64, n+3)
	for i := range base {
		base[i] = rng.NormFloat64()
	}
	x := base[3:] // x[t] = base[t+3]
	y := base[:n] // y[t] = base[t] = x[t-3]
	cc, err := CCF(x, y, 5)
	if err != nil {
		t.Fatal(err)
	}
	best, bestLag := -2.0, 0
	for k := -5; k <= 5; k++ {
		if v := cc[k+5]; v > best {
			best, bestLag = v, k
		}
	}
	if bestLag != -3 {
		t.Errorf("CCF peak at lag %d (%.2f), want -3", bestLag, best)
	}
	if best < 0.9 {
		t.Errorf("CCF peak = %g, want ~1", best)
	}
}

func TestCCFZeroLagMatchesPearson(t *testing.T) {
	x := []float64{1, 3, 2, 5, 4, 7, 6}
	y := []float64{2, 4, 3, 7, 5, 9, 6}
	cc, err := CCF(x, y, 2)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := Pearson(x, y)
	approx(t, "lag0 vs pearson", cc[2], r.Coeff, 1e-12)
	if _, err := CCF(x, y[:3], 2); err != ErrLength {
		t.Errorf("want ErrLength, got %v", err)
	}
}

func TestWhiteNoiseBound(t *testing.T) {
	approx(t, "bound(100)", WhiteNoiseBound(100), 0.1959963985, 1e-9)
	if !math.IsInf(WhiteNoiseBound(0), 1) {
		t.Error("bound for n=0 should be +Inf")
	}
}
