package dist

import (
	"math"
	"testing"
	"testing/quick"

	"homesight/internal/stats/specfn"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.12g, want %.12g (tol %g)", name, got, want, tol)
	}
}

func TestNormalCDF(t *testing.T) {
	n := StdNormal
	approx(t, "Phi(0)", n.CDF(0), 0.5, 1e-14)
	approx(t, "Phi(1.96)", n.CDF(1.959963985), 0.975, 1e-9)
	approx(t, "Phi(-1)", n.CDF(-1), 0.15865525393146, 1e-10)
	approx(t, "Phi(2.5758)", n.CDF(2.5758293), 0.995, 1e-7)
	scaled := Normal{Mu: 10, Sigma: 2}
	approx(t, "shifted", scaled.CDF(12), n.CDF(1), 1e-12)
}

func TestNormalQuantileRoundtrip(t *testing.T) {
	n := Normal{Mu: -3, Sigma: 0.7}
	for _, p := range []float64{0.001, 0.025, 0.5, 0.9, 0.999} {
		approx(t, "roundtrip", n.CDF(n.Quantile(p)), p, 1e-10)
	}
	approx(t, "z(.975)", StdNormal.Quantile(0.975), 1.959963985, 1e-7)
}

func TestNormalPDFIntegratesToCDF(t *testing.T) {
	// Trapezoid integration of the density should match the CDF increment.
	n := Normal{Mu: 1, Sigma: 2}
	const a, b = -2.0, 3.0
	const steps = 20000
	h := (b - a) / steps
	sum := (n.PDF(a) + n.PDF(b)) / 2
	for i := 1; i < steps; i++ {
		sum += n.PDF(a + float64(i)*h)
	}
	approx(t, "integral", sum*h, n.CDF(b)-n.CDF(a), 1e-8)
}

func TestStudentsT(t *testing.T) {
	// Reference values: pt(2.0, df=10) = 0.96330598, pt(1.0, df=1) = 0.75.
	approx(t, "pt(2,10)", StudentsT{DF: 10}.CDF(2), 0.96330598, 1e-7)
	approx(t, "pt(1,1)", StudentsT{DF: 1}.CDF(1), 0.75, 1e-10)
	approx(t, "pt(0,5)", StudentsT{DF: 5}.CDF(0), 0.5, 1e-14)
	// t with df=1 is Cauchy: CDF(x) = 1/2 + atan(x)/pi.
	for _, x := range []float64{-3, -0.5, 0.2, 4} {
		approx(t, "cauchy", StudentsT{DF: 1}.CDF(x), 0.5+math.Atan(x)/math.Pi, 1e-10)
	}
	// Large df converges to normal.
	approx(t, "t~N", StudentsT{DF: 1e6}.CDF(1.2), StdNormal.CDF(1.2), 1e-5)
}

func TestStudentsTTwoSided(t *testing.T) {
	d := StudentsT{DF: 7}
	for _, x := range []float64{0.3, 1.5, 2.9} {
		want := 2 * d.Survival(x)
		approx(t, "two-sided", d.TwoSidedP(x), want, 1e-12)
		approx(t, "symmetric", d.TwoSidedP(-x), want, 1e-12)
	}
}

func TestKolmogorov(t *testing.T) {
	k := Kolmogorov{}
	// Classic critical value: K(1.3581) ~ 0.95, K(1.2238) ~ 0.90,
	// K(1.6276) ~ 0.99 (two-sided KS asymptotic quantiles).
	approx(t, "K(1.3581)", k.CDF(1.3581), 0.95, 5e-4)
	approx(t, "K(1.2238)", k.CDF(1.2238), 0.90, 5e-4)
	approx(t, "K(1.6276)", k.CDF(1.6276), 0.99, 5e-4)
	if k.CDF(0) != 0 {
		t.Error("K(0) should be 0")
	}
	if got := k.CDF(5); math.Abs(got-1) > 1e-12 {
		t.Errorf("K(5) = %g, want ~1", got)
	}
	// The two branches must agree near the switch point.
	approx(t, "branch continuity", k.CDF(0.2999999), k.CDF(0.3000001), 1e-6)
}

func TestKolmogorovMonotoneQuick(t *testing.T) {
	k := Kolmogorov{}
	err := quick.Check(func(u float64) bool {
		x := math.Abs(math.Mod(u, 3))
		a, b := k.CDF(x), k.CDF(x+0.01)
		return b >= a-1e-12 && a >= 0 && b <= 1
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

// The distribution functions below have no caller in any program; the
// tests hold them, and through the same identities the production
// entries (Normal.Survival and Quantile, StudentsT.TwoSidedP), to
// published reference values.

// PDF returns the density at x.
func (n Normal) PDF(x float64) float64 {
	z := (x - n.Mu) / n.Sigma
	return math.Exp(-z*z/2) / (n.Sigma * math.Sqrt(2*math.Pi))
}

// CDF returns P(X <= x).
func (n Normal) CDF(x float64) float64 {
	return 0.5 * specfn.Erfc(-(x-n.Mu)/(n.Sigma*math.Sqrt2))
}

// PDF returns the density at x.
func (t StudentsT) PDF(x float64) float64 {
	v := t.DF
	return math.Exp(-(v+1)/2*math.Log(1+x*x/v) - 0.5*math.Log(v) - specfn.LogBeta(0.5, v/2))
}

// CDF returns P(T <= x) via the incomplete beta identity.
func (t StudentsT) CDF(x float64) float64 {
	if x == 0 {
		return 0.5
	}
	v := t.DF
	ib := specfn.RegIncBeta(v/2, 0.5, v/(v+x*x))
	if x > 0 {
		return 1 - ib/2
	}
	return ib / 2
}

// Survival returns P(T > x).
func (t StudentsT) Survival(x float64) float64 { return t.CDF(-x) }
