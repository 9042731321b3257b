// Package corrsim implements Definition 1 of the paper: the correlation
// similarity measure cor(X, Y), the maximum statistically significant
// coefficient among Pearson's r, Spearman's ρ and Kendall's τ, and the
// induced correlation distance 1 − cor used for clustering.
package corrsim

import (
	"math"

	"homesight/internal/stats/corr"
)

// DefaultAlpha is the significance level used throughout the paper.
const DefaultAlpha = 0.05

// StrongThreshold is the paper's interpretation boundary for a strong
// correlation ([0.5, 1] → strong; the similarity clusters of Fig. 3 use the
// slightly stricter 0.6).
const StrongThreshold = 0.5

// Interpretation is the paper's verbal strength scale for correlation
// values (Sec. 4.2).
type Interpretation string

// Correlation strength bands, per Corder & Foreman and the paper's Sec. 4.2.
const (
	NoCorrelation     Interpretation = "none"   // [0.0, 0.1)
	LowCorrelation    Interpretation = "low"    // [0.1, 0.3)
	MediumCorrelation Interpretation = "medium" // [0.3, 0.5)
	StrongCorrelation Interpretation = "strong" // [0.5, 1.0]
)

// Interpret classifies the absolute value of a correlation coefficient.
func Interpret(c float64) Interpretation {
	a := math.Abs(c)
	switch {
	case a < 0.1:
		return NoCorrelation
	case a < 0.3:
		return LowCorrelation
	case a < 0.5:
		return MediumCorrelation
	default:
		return StrongCorrelation
	}
}

// Coefficients selects which correlation coefficients participate in the
// max of Definition 1. The zero value means all three — the paper's
// measure; single-coefficient variants exist for the ablation benchmarks.
type Coefficients uint8

// Coefficient selectors; combine with bitwise or.
const (
	UsePearson Coefficients = 1 << iota
	UseSpearman
	UseKendall

	// UseAll is the paper's measure.
	UseAll = UsePearson | UseSpearman | UseKendall
)

func (c Coefficients) has(f Coefficients) bool {
	if c == 0 {
		c = UseAll
	}
	return c&f != 0
}

// Measure computes the Definition 1 similarity at a significance level.
// The zero value uses DefaultAlpha and all three coefficients.
type Measure struct {
	// Alpha is the significance level; coefficients whose zero-correlation
	// null is not rejected at Alpha contribute nothing.
	Alpha float64
	// Use selects the participating coefficients (0 = all three).
	Use Coefficients
}

// Default is the paper's measure at α = 0.05.
var Default = Measure{Alpha: DefaultAlpha}

// Cor is cor(X, Y) per Definition 1 at the paper's α — the
// significance-gated entry point the sig-gate rule of internal/analysis
// steers every caller of the raw coefficients to.
func Cor(x, y []float64) float64 {
	return Default.Similarity(x, y)
}

// alpha returns the effective significance level.
func (m Measure) alpha() float64 {
	if m.Alpha <= 0 {
		return DefaultAlpha
	}
	return m.Alpha
}

// Detail exposes the three coefficients behind one similarity value, for
// diagnostics and the ablation benchmarks.
type Detail struct {
	Pearson, Spearman, Kendall corr.Result
	// Similarity is the Definition 1 value.
	Similarity float64
	// N is the number of complete (both observed) pairs used.
	N int
}

// Similarity returns cor(X, Y) per Definition 1: the largest statistically
// significant coefficient, or 0 when none is significant. Pairs where
// either series is NaN (missing observation) are dropped first; fewer than
// 3 complete pairs yield 0.
func (m Measure) Similarity(x, y []float64) float64 {
	return m.Detailed(x, y).Similarity
}

// Detailed returns the similarity along with each underlying coefficient.
func (m Measure) Detailed(x, y []float64) Detail {
	cx, cy := completePairs(x, y)
	d := Detail{N: len(cx)}
	if len(cx) < 3 {
		return d
	}
	// Excluded coefficients are reported as never-significant. The errors
	// below cannot occur: completePairs returns equal lengths, checked ≥ 3.
	excluded := corr.Result{Coeff: math.NaN(), PValue: 1, N: len(cx)}
	d.Pearson, d.Spearman, d.Kendall = excluded, excluded, excluded
	if m.Use.has(UsePearson) {
		d.Pearson, _ = corr.Pearson(cx, cy)
	}
	switch rho, tau := m.Use.has(UseSpearman), m.Use.has(UseKendall); {
	case rho && tau:
		// One pass of the rank kernel: the two sorts are shared.
		d.Spearman, d.Kendall, _ = corr.SpearmanKendall(cx, cy)
	case rho:
		d.Spearman, _ = corr.Spearman(cx, cy)
	case tau:
		d.Kendall, _ = corr.Kendall(cx, cy)
	}
	alpha := m.alpha()
	best := 0.0
	for _, r := range []corr.Result{d.Pearson, d.Spearman, d.Kendall} {
		if r.Significant(alpha) && r.Coeff > best {
			best = r.Coeff
		}
	}
	d.Similarity = best
	return d
}

// SimilarityUnder re-evaluates Definition 1 from the already-computed
// coefficients as measure m would have scored them: the largest
// coefficient among m's selection that is significant at m's α, or 0.
// One Detailed computation can therefore back arbitrarily many measure
// variants — the experiment Env's pairwise cache and the ablation table
// depend on this. The Detail must have been produced with every
// coefficient in m.Use included (UseAll satisfies any m): excluded
// coefficients are stored as never-significant and would silently read
// as "insignificant" here.
func (d Detail) SimilarityUnder(m Measure) float64 {
	alpha := m.alpha()
	best := 0.0
	for _, c := range []struct {
		use Coefficients
		r   corr.Result
	}{
		{UsePearson, d.Pearson},
		{UseSpearman, d.Spearman},
		{UseKendall, d.Kendall},
	} {
		if !m.Use.has(c.use) {
			continue
		}
		if c.r.Significant(alpha) && c.r.Coeff > best {
			best = c.r.Coeff
		}
	}
	return best
}

// Distance returns the correlation distance 1 − cor(X, Y) used by the
// hierarchical clustering of Fig. 3. It ranges over [0, 1] because
// Definition 1 never returns a negative similarity (an insignificant or
// negative correlation contributes 0, i.e. distance 1).
func (m Measure) Distance(x, y []float64) float64 {
	return 1 - m.Similarity(x, y)
}

// completePairs drops positions where either value is NaN.
func completePairs(x, y []float64) ([]float64, []float64) {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	cx := make([]float64, 0, n)
	cy := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if math.IsNaN(x[i]) || math.IsNaN(y[i]) {
			continue
		}
		cx = append(cx, x[i])
		cy = append(cy, y[i])
	}
	return cx, cy
}
