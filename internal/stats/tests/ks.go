// Package tests implements the hypothesis tests the paper's analysis
// framework relies on: the two-sample Kolmogorov–Smirnov test (the
// distribution-similarity half of strong stationarity, Def. 2), the
// Augmented Dickey–Fuller and KPSS unit-root tests used in the preliminary
// analysis (Sec. 4.2).
package tests

import (
	"errors"
	"math"

	"homesight/internal/stats/dist"
)

// ErrTooShort is returned when a sample is too small for the test.
var ErrTooShort = errors.New("tests: sample too short")

// KSResult is the outcome of a two-sample Kolmogorov–Smirnov test.
type KSResult struct {
	// D is the supremum distance between the two empirical CDFs.
	D float64
	// PValue is the asymptotic two-sided p-value.
	PValue float64
	// N1, N2 are the sample sizes.
	N1, N2 int
}

// Rejected reports whether the null hypothesis (same distribution) is
// rejected at level alpha.
func (r KSResult) Rejected(alpha float64) bool { return r.PValue < alpha }

// KolmogorovSmirnovSorted performs the two-sample KS test of H0: xs and
// ys are drawn from the same distribution. Both samples must be in
// ascending order; a caller comparing k samples pairwise sorts each once
// instead of k-1 times. The p-value uses the asymptotic Kolmogorov
// distribution with the Numerical-Recipes finite-sample correction.
func KolmogorovSmirnovSorted(xs, ys []float64) (KSResult, error) {
	if len(xs) == 0 || len(ys) == 0 {
		return KSResult{}, ErrTooShort
	}
	n1, n2 := len(xs), len(ys)

	// Walk both sorted samples computing the max CDF gap.
	var d float64
	i, j := 0, 0
	for i < n1 && j < n2 {
		v1, v2 := xs[i], ys[j]
		v := math.Min(v1, v2)
		for i < n1 && xs[i] <= v {
			i++
		}
		for j < n2 && ys[j] <= v {
			j++
		}
		gap := math.Abs(float64(i)/float64(n1) - float64(j)/float64(n2))
		if gap > d {
			d = gap
		}
	}

	ne := float64(n1) * float64(n2) / float64(n1+n2)
	sq := math.Sqrt(ne)
	stat := (sq + 0.12 + 0.11/sq) * d
	p := dist.Kolmogorov{}.Survival(stat)
	return KSResult{D: d, PValue: p, N1: n1, N2: n2}, nil
}
