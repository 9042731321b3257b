package corr

import (
	"math"

	"homesight/internal/stats"
)

// ACF returns the sample autocorrelation function of x at lags 0..maxLag
// using the standard biased estimator (covariances normalized by n), the
// convention of R's acf(). Lags beyond len(x)-1 are reported as 0.
func ACF(x []float64, maxLag int) []float64 {
	n := len(x)
	out := make([]float64, maxLag+1)
	if n == 0 {
		return out
	}
	m := stats.Mean(x)
	denom := 0.0
	for _, v := range x {
		denom += (v - m) * (v - m)
	}
	if denom == 0 {
		// A constant series is perfectly autocorrelated at lag 0 and
		// undefined elsewhere; report 1, 0, 0, ... to stay plot-friendly.
		out[0] = 1
		return out
	}
	for lag := 0; lag <= maxLag && lag < n; lag++ {
		num := 0.0
		for t := 0; t+lag < n; t++ {
			num += (x[t] - m) * (x[t+lag] - m)
		}
		out[lag] = num / denom
	}
	return out
}

// CCF returns the sample cross-correlation of x and y for lags
// -maxLag..maxLag, in that order (index i holds lag i-maxLag). A positive
// lag k correlates x[t+k] with y[t], matching R's ccf(x, y) convention.
// The two series must have equal length n; lags with |k| >= n are 0.
func CCF(x, y []float64, maxLag int) ([]float64, error) {
	if len(x) != len(y) {
		return nil, ErrLength
	}
	n := len(x)
	out := make([]float64, 2*maxLag+1)
	if n == 0 {
		return out, nil
	}
	mx, my := stats.Mean(x), stats.Mean(y)
	var sx, sy float64
	for i := range x {
		sx += (x[i] - mx) * (x[i] - mx)
		sy += (y[i] - my) * (y[i] - my)
	}
	denom := math.Sqrt(sx * sy)
	if denom == 0 {
		return out, nil
	}
	for k := -maxLag; k <= maxLag; k++ {
		if k >= n || -k >= n {
			continue
		}
		num := 0.0
		for t := 0; t < n; t++ {
			if t+k < 0 || t+k >= n {
				continue
			}
			num += (x[t+k] - mx) * (y[t] - my)
		}
		out[k+maxLag] = num / denom
	}
	return out, nil
}

// WhiteNoiseBound returns the approximate 95% significance bound
// ±1.96/sqrt(n) for sample autocorrelations of white noise; bars outside it
// are the "statistically significant autocorrelations" of Sec. 4.2.
func WhiteNoiseBound(n int) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	return 1.959963985 / math.Sqrt(float64(n))
}
