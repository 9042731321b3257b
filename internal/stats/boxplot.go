package stats

import "sort"

// Boxplot holds Tukey boxplot statistics: quartiles, whiskers and outliers.
// The paper uses the upper whisker as the per-device background-traffic
// threshold τ (Sec. 6.1): the interval between the whiskers contains the
// bulk of the (background-dominated) traffic mass, while active-usage bursts
// fall outside it.
type Boxplot struct {
	Q1, Median, Q3 float64
	IQR            float64
	// LowerWhisker is the smallest observation >= Q1 - K*IQR.
	LowerWhisker float64
	// UpperWhisker is the largest observation <= Q3 + K*IQR.
	UpperWhisker float64
	// Outliers are the observations beyond the whiskers, ascending.
	Outliers []float64
}

// DefaultWhiskerK is Tukey's conventional whisker multiplier.
const DefaultWhiskerK = 1.5

// NewBoxplot computes boxplot statistics for xs with whisker multiplier k
// (use DefaultWhiskerK for the Tukey convention). It returns ErrEmpty for an
// empty sample.
func NewBoxplot(xs []float64, k float64) (Boxplot, error) {
	if len(xs) == 0 {
		return Boxplot{}, ErrEmpty
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)

	b := Boxplot{
		Q1:     quantileSorted(sorted, 0.25),
		Median: quantileSorted(sorted, 0.5),
		Q3:     quantileSorted(sorted, 0.75),
	}
	b.IQR = b.Q3 - b.Q1
	loFence := b.Q1 - k*b.IQR
	hiFence := b.Q3 + k*b.IQR

	// Whiskers extend to the most extreme points inside the fences.
	b.LowerWhisker = b.Q1
	b.UpperWhisker = b.Q3
	for _, x := range sorted {
		if x >= loFence {
			b.LowerWhisker = x
			break
		}
	}
	for i := len(sorted) - 1; i >= 0; i-- {
		if sorted[i] <= hiFence {
			b.UpperWhisker = sorted[i]
			break
		}
	}
	for _, x := range sorted {
		if x < loFence || x > hiFence {
			b.Outliers = append(b.Outliers, x)
		}
	}
	return b, nil
}
