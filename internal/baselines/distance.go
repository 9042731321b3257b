// Package baselines implements the alternative techniques the paper
// compares against and rejects: Euclidean distance and Dynamic Time
// Warping as similarity measures (Sec. 5), traffic-volume ranking for
// dominance (Sec. 6.2), SAX symbolic representation for motif discovery
// (Sec. 2), and an autoregressive forecaster standing in for the ARIMA
// modelling the paper finds unable to predict traffic bursts (Sec. 4.2).
package baselines

import (
	"errors"
	"math"
)

// ErrLength is returned when two series have different lengths where equal
// lengths are required.
var ErrLength = errors.New("baselines: series must have equal length")

// Euclidean returns the Euclidean distance between two equal-length series,
// the formula of Sec. 6.2: sqrt(Σ (x_i - y_i)²). A missing (NaN) value is
// zero traffic, the gateway counters' convention, so a sparse device is
// not handed an artificially tiny distance by skipping its gaps.
func Euclidean(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, ErrLength
	}
	sum := 0.0
	for i := range x {
		d := zeroIfMissing(x[i]) - zeroIfMissing(y[i])
		sum += d * d
	}
	return math.Sqrt(sum), nil
}

func zeroIfMissing(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// DTW returns the Dynamic Time Warping distance between x and y under a
// Sakoe–Chiba band of the given radius (radius <= 0 means unconstrained).
// The paper rejects DTW because it matches time-shifted activity, which is
// exactly what ISP-facing behavioural patterns must not do; the
// implementation exists to demonstrate that on data.
//
//homesight:ignore unreachable — (d) the rival the paper rejects in Sec. 5; TestDTW shows it matching time-shifted activity
func DTW(x, y []float64, radius int) float64 {
	n, m := len(x), len(y)
	if n == 0 || m == 0 {
		if n == m {
			return 0
		}
		return math.Inf(1)
	}
	if radius <= 0 {
		radius = n + m // effectively unconstrained
	}
	// Two-row dynamic program.
	inf := math.Inf(1)
	prev := make([]float64, m+1)
	cur := make([]float64, m+1)
	for j := range prev {
		prev[j] = inf
	}
	prev[0] = 0
	for i := 1; i <= n; i++ {
		for j := range cur {
			cur[j] = inf
		}
		lo := i - radius
		if lo < 1 {
			lo = 1
		}
		hi := i + radius
		if hi > m {
			hi = m
		}
		for j := lo; j <= hi; j++ {
			cost := math.Abs(x[i-1] - y[j-1])
			best := prev[j] // insertion
			if prev[j-1] < best {
				best = prev[j-1] // match
			}
			if cur[j-1] < best {
				best = cur[j-1] // deletion
			}
			cur[j] = cost + best
		}
		prev, cur = cur, prev
	}
	return prev[m]
}
