package stats

import "math"

// Histogram is a fixed-width binned frequency count over [Lo, Hi).
// Values exactly equal to Hi are assigned to the last bin, matching the
// right-closed convention of most plotting tools.
type Histogram struct {
	Lo, Hi float64
	Width  float64
	Counts []int
	// Total is the number of observations inside [Lo, Hi]; observations
	// outside the range are dropped and not counted here.
	Total int
}

// NewHistogram bins xs into `bins` equal-width bins spanning [lo, hi].
// It panics if bins < 1 or hi <= lo.
func NewHistogram(xs []float64, lo, hi float64, bins int) *Histogram {
	if bins < 1 || hi <= lo {
		panic("stats: NewHistogram requires bins >= 1 and hi > lo")
	}
	h := &Histogram{Lo: lo, Hi: hi, Width: (hi - lo) / float64(bins), Counts: make([]int, bins)}
	for _, x := range xs {
		if x < lo || x > hi || math.IsNaN(x) {
			continue
		}
		i := int((x - lo) / h.Width)
		if i >= bins {
			i = bins - 1
		}
		h.Counts[i]++
		h.Total++
	}
	return h
}
