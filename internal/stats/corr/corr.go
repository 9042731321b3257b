// Package corr implements the three correlation coefficients the paper's
// similarity measure is built on — Pearson's r, Spearman's ρ and Kendall's
// τ-b — together with their significance tests, plus the autocorrelation
// and cross-correlation used in the preliminary analysis (Sec. 4.2).
package corr

import (
	"errors"
	"math"

	"homesight/internal/stats"
	"homesight/internal/stats/dist"
)

// ErrLength is returned when the two samples have different lengths.
var ErrLength = errors.New("corr: samples must have equal length")

// ErrTooShort is returned when a sample is too short for the statistic.
var ErrTooShort = errors.New("corr: sample too short")

// Result is a correlation coefficient together with its two-sided p-value
// under the null hypothesis of no association.
type Result struct {
	Coeff  float64
	PValue float64
	N      int
}

// Significant reports whether the null hypothesis of zero correlation is
// rejected at level alpha.
func (r Result) Significant(alpha float64) bool {
	return !math.IsNaN(r.Coeff) && r.PValue < alpha
}

// Pearson returns Pearson's product-moment correlation of x and y with the
// two-sided p-value from the exact t-distribution of
// t = r sqrt((n-2)/(1-r²)) under bivariate normality.
// Constant series give a NaN coefficient with p-value 1 (never significant),
// which is the behaviour Definition 1 needs for silent traffic windows.
func Pearson(x, y []float64) (Result, error) {
	if len(x) != len(y) {
		return Result{}, ErrLength
	}
	n := len(x)
	if n < 3 {
		return Result{}, ErrTooShort
	}
	mx, my := stats.Mean(x), stats.Mean(y)
	var sxx, syy, sxy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		syy += dy * dy
		sxy += dx * dy
	}
	if sxx == 0 || syy == 0 {
		return Result{Coeff: math.NaN(), PValue: 1, N: n}, nil
	}
	r := sxy / math.Sqrt(sxx*syy)
	// Clamp rounding noise so the t transform stays finite.
	if r > 1 {
		r = 1
	} else if r < -1 {
		r = -1
	}
	return Result{Coeff: r, PValue: pValueFromR(r, n), N: n}, nil
}

// pValueFromR converts a correlation coefficient into a two-sided p-value
// via the t-distribution with n-2 degrees of freedom.
func pValueFromR(r float64, n int) float64 {
	if math.Abs(r) >= 1 {
		return 0
	}
	t := r * math.Sqrt(float64(n-2)/(1-r*r))
	return dist.StudentsT{DF: float64(n - 2)}.TwoSidedP(t)
}
