package main

import (
	"math"
	"sort"
)

// phaseWindows is how many windows of equal operation count a timed
// phase is cut into, in start order. A percentile is reported as the
// median over windows of the per-window percentile: one memtable-flush
// stall (or the sketch-conversion cliff) then moves one window, not the
// whole-run figure (see README.md, "Stable statistics").
const phaseWindows = 10

// op is one timed operation: when it started (or, in an open loop, was
// due), in seconds since the phase began, and how long it took.
type op struct{ At, Ms float64 }

func durations(ops []op) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = o.Ms
	}
	return out
}

// percentile returns the nearest-rank p-quantile of vals (0 for none).
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(vals []float64) float64 { return percentile(vals, 0.5) }

// windowedPercentile orders the operations by start time, cuts them
// into phaseWindows runs of equal length and returns the median of the
// per-window percentiles.
func windowedPercentile(ops []op, p float64) float64 {
	if len(ops) == 0 {
		return 0
	}
	sorted := append([]op(nil), ops...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })
	windows := min(phaseWindows, len(sorted))
	per := make([]float64, windows)
	for w := range per {
		lo, hi := w*len(sorted)/windows, (w+1)*len(sorted)/windows
		per[w] = percentile(durations(sorted[lo:hi]), p)
	}
	return median(per)
}

// tailPercentile picks the highest of p99, p95 and p90 that leaves at
// least ten of n samples beyond it; ok is false when none does.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range []float64{0.99, 0.95, 0.90} {
		if float64(n)*(1-p) >= 10 {
			return p, true
		}
	}
	return 1, false
}

// quartiles reproduces Python's statistics.quantiles(vals, n=4) (the
// default "exclusive" method), which is what the benchmark driver uses
// for its repeatability check.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), vals...)
	sort.Float64s(x)
	n := len(x)
	if n < 2 {
		if n == 1 {
			return x[0], x[0], x[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vals []float64) float64 {
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// tailOf returns the tail latency of a phase and the percentile it was
// taken at: the windowed tailPercentile, or the slowest operation when
// the sample is too small for any percentile to qualify.
func tailOf(ops []op) (value, p float64) {
	p, ok := tailPercentile(len(ops))
	if !ok {
		return percentile(durations(ops), 1), p
	}
	return windowedPercentile(ops, p), p
}
