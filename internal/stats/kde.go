package stats

import "math"

// KDE is a Gaussian kernel density estimator, the tool the paper uses to
// approximate and compare the probability density functions of traffic time
// series (Fig. 1a).
type KDE struct {
	sample    []float64
	bandwidth float64
}

// NewKDE builds a Gaussian KDE over xs with the given bandwidth. If
// bandwidth <= 0, Silverman's rule of thumb is used:
// h = 0.9 * min(sd, IQR/1.34) * n^(-1/5).
// It returns nil for an empty sample.
func NewKDE(xs []float64, bandwidth float64) *KDE {
	if len(xs) == 0 {
		return nil
	}
	sample := make([]float64, len(xs))
	copy(sample, xs)
	if bandwidth <= 0 {
		bandwidth = SilvermanBandwidth(xs)
	}
	return &KDE{sample: sample, bandwidth: bandwidth}
}

// SilvermanBandwidth returns Silverman's rule-of-thumb bandwidth for xs.
// Degenerate spreads fall back to 1 so the estimator stays usable on
// constant series.
func SilvermanBandwidth(xs []float64) float64 {
	sd := StdDev(xs)
	b, err := NewBoxplot(xs, DefaultWhiskerK)
	if err != nil {
		return 1
	}
	spread := sd
	if iqrScaled := b.IQR / 1.34; iqrScaled > 0 && (iqrScaled < spread || math.IsNaN(spread) || spread == 0) {
		spread = iqrScaled
	}
	if spread <= 0 || math.IsNaN(spread) {
		return 1
	}
	return 0.9 * spread * math.Pow(float64(len(xs)), -0.2)
}

// PDF returns the estimated density at x.
func (k *KDE) PDF(x float64) float64 {
	const invSqrt2Pi = 0.3989422804014327
	sum := 0.0
	for _, s := range k.sample {
		z := (x - s) / k.bandwidth
		sum += math.Exp(-z * z / 2)
	}
	return sum * invSqrt2Pi / (float64(len(k.sample)) * k.bandwidth)
}
