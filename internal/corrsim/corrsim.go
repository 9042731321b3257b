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
// The complete pairs are compacted into the rank kernel's pooled scratch,
// so a warm call allocates nothing.
func (m Measure) Detailed(x, y []float64) Detail {
	return m.detail(corr.Complete(x, y))
}

// detail gates the coefficients of n complete pairs into a Detail.
func (m Measure) detail(pearson, rho, tau corr.Result, n int) Detail {
	d := Detail{N: n}
	if n < 3 {
		return d
	}
	// Excluded coefficients are reported as never-significant.
	excluded := corr.Result{Coeff: math.NaN(), PValue: 1, N: n}
	d.Pearson, d.Spearman, d.Kendall = excluded, excluded, excluded
	if m.Use.has(UsePearson) {
		d.Pearson = pearson
	}
	if m.Use.has(UseSpearman) {
		d.Spearman = rho
	}
	if m.Use.has(UseKendall) {
		d.Kendall = tau
	}
	d.Similarity = d.SimilarityUnder(m)
	return d
}

// Reference is one series prepared to be compared with many others under
// a Measure — a gateway against each of its devices. Its ascending order
// is computed once (corr.Ranked), so every comparison sorts only the other
// side; each result equals, bit for bit, the Measure's own method with the
// reference as y.
type Reference struct {
	m      Measure
	ranked corr.Ranked
}

// Against prepares y as the second argument of many comparisons. y must
// not change while the Reference is in use.
func (m Measure) Against(y []float64) *Reference {
	r := &Reference{m: m}
	r.ranked.Rank(y)
	return r
}

// Detailed is m.Detailed(x, y) for the reference y.
func (r *Reference) Detailed(x []float64) Detail {
	return r.m.detail(r.ranked.Complete(x))
}

// Similarity is m.Similarity(x, y) for the reference y.
func (r *Reference) Similarity(x []float64) float64 {
	return r.Detailed(x).Similarity
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
