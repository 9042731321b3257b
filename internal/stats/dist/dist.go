// Package dist provides the probability distributions the homesight
// hypothesis tests read: the Normal (survival and quantile), Student's t
// (the two-sided p-value of a correlation coefficient) and the asymptotic
// Kolmogorov distribution of the KS statistic.
//
// The implementations are exact transcriptions of the classical identities
// in terms of the error function and the regularized incomplete beta
// function (package specfn) and are validated against published reference
// values in the tests.
package dist

import (
	"math"

	"homesight/internal/stats/specfn"
)

// Normal is a normal (Gaussian) distribution with mean Mu and standard
// deviation Sigma.
type Normal struct {
	Mu    float64
	Sigma float64
}

// StdNormal is the standard normal distribution N(0, 1).
var StdNormal = Normal{Mu: 0, Sigma: 1}

// Survival returns P(X > x) with full precision in the upper tail.
func (n Normal) Survival(x float64) float64 {
	return 0.5 * specfn.Erfc((x-n.Mu)/(n.Sigma*math.Sqrt2))
}

// Quantile returns the value q such that CDF(q) = p.
func (n Normal) Quantile(p float64) float64 {
	return n.Mu + n.Sigma*math.Sqrt2*specfn.InvErf(2*p-1)
}

// StudentsT is Student's t distribution with DF degrees of freedom.
type StudentsT struct {
	DF float64
}

// TwoSidedP returns P(|T| >= |x|), the two-sided p-value for statistic x.
func (t StudentsT) TwoSidedP(x float64) float64 {
	v := t.DF
	return specfn.RegIncBeta(v/2, 0.5, v/(v+x*x))
}

// Kolmogorov is the asymptotic Kolmogorov distribution of the scaled
// Kolmogorov–Smirnov statistic sqrt(n) * D_n.
type Kolmogorov struct{}

// CDF returns P(K <= x) using the theta-function series
// K(x) = 1 - 2 sum_{k>=1} (-1)^(k-1) exp(-2 k^2 x^2).
func (Kolmogorov) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x < 0.3 {
		// The alternating series converges slowly for tiny x; use the
		// complementary Jacobi theta expansion which is sharp there.
		t := math.Exp(-math.Pi * math.Pi / (8 * x * x))
		sum := 0.0
		for k := 0; k < 20; k++ {
			m := 2*float64(k) + 1
			sum += math.Pow(t, m*m)
		}
		return math.Sqrt(2*math.Pi) / x * sum
	}
	sum := 0.0
	sign := 1.0
	for k := 1; k <= 100; k++ {
		term := sign * math.Exp(-2*float64(k)*float64(k)*x*x)
		sum += term
		sign = -sign
		if math.Abs(term) < 1e-16 {
			break
		}
	}
	v := 1 - 2*sum
	return math.Max(0, math.Min(1, v))
}

// Survival returns P(K > x).
func (k Kolmogorov) Survival(x float64) float64 { return 1 - k.CDF(x) }
