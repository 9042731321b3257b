// Package stats implements the descriptive statistics used by the homesight
// analysis framework: moments, quantiles, boxplot statistics (the basis of
// the paper's background-traffic threshold), histograms, Gaussian kernel
// density estimation, and a Zipf tail fit. Everything is stdlib-only.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that need at least one observation.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance (denominator n-1).
// It returns NaN for samples with fewer than two observations.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// PopVariance returns the population variance (denominator n).
func PopVariance(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n)
}

// Min returns the smallest value in xs, or NaN for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest value in xs, or NaN for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Median returns the sample median, or NaN for an empty slice.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantile returns the p-th sample quantile of xs using linear interpolation
// between order statistics (type 7, the R default). p is clamped to [0, 1].
// It returns NaN for an empty slice.
func Quantile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	sorted := make([]float64, n)
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, p)
}

// quantileSorted is Quantile for an already-sorted sample.
func quantileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	lo, frac := quantileRank(n, p)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return interpolate(sorted[lo], sorted[lo+1], frac)
}

// quantileRank places the type-7 p-quantile (0 < p < 1) of an n-sample on
// its order statistics: frac of the way from rank lo to rank lo+1.
func quantileRank(n int, p float64) (lo int, frac float64) {
	h := p * float64(n-1)
	lo = int(math.Floor(h))
	return lo, h - float64(lo)
}

// interpolate is the one expression every quantile in this package is
// read through; recorded outputs hold its rounding, so it does not change
// shape without them.
func interpolate(lo, hi, frac float64) float64 { return lo*(1-frac) + hi*frac }

// Summary bundles the five-number summary plus moments of a sample.
type Summary struct {
	N               int
	Mean, StdDev    float64
	Min, Q1, Median float64
	Q3, Max         float64
}

// Summarize computes a Summary of xs. It returns ErrEmpty for an empty
// sample.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    sorted[0],
		Q1:     quantileSorted(sorted, 0.25),
		Median: quantileSorted(sorted, 0.5),
		Q3:     quantileSorted(sorted, 0.75),
		Max:    sorted[len(sorted)-1],
	}, nil
}

// ZScores returns the z-normalized copy of xs: (x - mean) / stddev.
// If the standard deviation is zero (constant series) it returns a slice of
// zeros, which keeps downstream correlation code well-defined.
func ZScores(xs []float64) []float64 {
	out := make([]float64, len(xs))
	if len(xs) == 0 {
		return out
	}
	m := Mean(xs)
	sd := math.Sqrt(PopVariance(xs))
	if sd == 0 {
		return out
	}
	for i, x := range xs {
		out[i] = (x - m) / sd
	}
	return out
}

// Ranks returns the fractional ranks of xs (1-based, ties receive the
// average rank), the form required by Spearman's correlation. -0 and +0
// tie. A NaN has no rank and leaves none well-defined for the rest: if xs
// holds one, every rank is NaN.
func Ranks(xs []float64) []float64 {
	n := len(xs)
	ranks := make([]float64, n)
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	var o Order
	if !o.Argsort(xs, perm) {
		for i := range ranks {
			ranks[i] = math.NaN()
		}
		return ranks
	}
	keys := o.Keys()
	for i := 0; i < n; {
		j := i
		for j+1 < n && keys[j+1] == keys[i] {
			j++
		}
		// Average rank for the tie group [i, j].
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[perm[k]] = avg
		}
		i = j + 1
	}
	return ranks
}
