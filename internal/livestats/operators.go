package livestats

import (
	"math"
	"math/rand"

	"homesight/internal/stats"
	"homesight/internal/stats/corr"
	"homesight/internal/stats/dist"
)

// CoMoment is the exact online Pearson operator: Welford-style running
// means and centered co-moments over a paired stream. Add is O(1) and
// the coefficient (and its t-distribution p-value) is algebraically the
// batch corr.Pearson of the same pairs — the only divergence is
// floating-point accumulation order, bounded by PearsonTol in practice.
type CoMoment struct {
	n             int64
	mx, my        float64
	sxx, syy, sxy float64
}

// Add consumes one (x, y) pair.
func (c *CoMoment) Add(x, y float64) {
	c.n++
	n := float64(c.n)
	dx := x - c.mx
	dy := y - c.my
	c.mx += dx / n
	c.my += dy / n
	c.sxx += dx * (x - c.mx)
	c.syy += dy * (y - c.my)
	c.sxy += dx * (y - c.my)
}

// N returns the number of pairs consumed.
func (c *CoMoment) N() int64 { return c.n }

// Result mirrors corr.Pearson on the consumed pairs: a constant side
// (or fewer than 3 pairs) yields a NaN coefficient with p-value 1,
// never significant — the Definition 1 behaviour for silent windows.
func (c *CoMoment) Result() corr.Result {
	n := int(c.n)
	if n < 3 {
		return corr.Result{Coeff: math.NaN(), PValue: 1, N: n}
	}
	// Welford keeps a constant side's co-moment at exactly 0; a tiny
	// negative value can only appear through rounding, so <= is the
	// online spelling of the batch == 0 degenerate-variance guard.
	if c.sxx <= 0 || c.syy <= 0 {
		return corr.Result{Coeff: math.NaN(), PValue: 1, N: n}
	}
	r := c.sxy / math.Sqrt(c.sxx*c.syy)
	if r > 1 {
		r = 1
	} else if r < -1 {
		r = -1
	}
	p := 0.0
	if math.Abs(r) < 1 {
		t := r * math.Sqrt(float64(n-2)/(1-r*r))
		p = dist.StudentsT{DF: float64(n - 2)}.TwoSidedP(t)
	}
	return corr.Result{Coeff: r, PValue: p, N: n}
}

// minRankCap keeps the reservoir large enough for the coefficients to
// be meaningful at all.
const minRankCap = 8

// RankSketch is the bounded-memory rank operator behind the online
// Spearman ρ and Kendall τ-b: a classic Algorithm R reservoir over the
// (device, aggregate) pairs. While the stream fits the reservoir
// (n ≤ cap) the sample is complete and both coefficients equal the
// batch answers exactly; beyond the cap the reservoir is a uniform
// sample of the stream and the coefficients are estimates with the
// statistical tolerance documented in STREAMING.md. The RNG is seeded
// per sketch, so a given stream always produces the same snapshot.
type RankSketch struct {
	cap    int
	xs, ys []float64
	n      int64
	gen    uint64
	rng    *rand.Rand
}

// NewRankSketch returns a reservoir of the given capacity (clamped to a
// small minimum) with a deterministic seed.
func NewRankSketch(capacity int, seed int64) *RankSketch {
	if capacity < minRankCap {
		capacity = minRankCap
	}
	return &RankSketch{cap: capacity, rng: rand.New(rand.NewSource(seed))}
}

// Observe consumes one (x, y) pair in O(1).
func (r *RankSketch) Observe(x, y float64) {
	r.n++
	if len(r.xs) < r.cap {
		r.xs = append(r.xs, x)
		r.ys = append(r.ys, y)
		r.gen++
		return
	}
	if j := r.rng.Int63n(r.n); j < int64(r.cap) {
		r.xs[j] = x
		r.ys[j] = y
		r.gen++
	}
}

// N returns the number of pairs offered to the reservoir.
func (r *RankSketch) N() int64 { return r.n }

// Generation counts the changes to the reservoir's contents: it moves on
// an append or a replacement, and not on a rejected Algorithm R draw —
// past the cap that is all but cap/n of the stream. Equal generations
// mean equal contents, so equal coefficients.
func (r *RankSketch) Generation() uint64 { return r.gen }

// Sampled reports whether the stream overflowed the reservoir (the
// coefficients are then estimates, not exact).
func (r *RankSketch) Sampled() bool { return r.n > int64(r.cap) }

// SpearmanKendall returns Spearman's ρ and Kendall's τ-b over the
// reservoir sample, from one pass of the rank kernel.
func (r *RankSketch) SpearmanKendall() (rho, tau corr.Result) {
	rho, tau, err := corr.SpearmanKendall(r.xs, r.ys) //homesight:rawcorr — Definition 1 gating is applied downstream via corrsim.Detail.SimilarityUnder
	if err != nil {
		undefined := corr.Result{Coeff: math.NaN(), PValue: 1, N: len(r.xs)}
		return undefined, undefined
	}
	return rho, tau
}

// rankMemo remembers a RankSketch's coefficients at one generation, so a
// snapshot re-runs the rank kernel only for reservoirs that changed.
type rankMemo struct {
	valid    bool
	gen      uint64
	rho, tau corr.Result
}

func (m *rankMemo) coefficients(r *RankSketch) (rho, tau corr.Result) {
	if gen := r.Generation(); !m.valid || m.gen != gen {
		m.rho, m.tau = r.SpearmanKendall()
		m.gen, m.valid = gen, true
	}
	return m.rho, m.tau
}

// whiskerMemo remembers a QuantileSketch's whisker at one observation
// count. Every finite observation changes the sketch, so equal counts
// mean an equal whisker — which, while the sketch still buffers, is a
// sort of up to QuantCap values that an unchanged device need not repeat.
// The zero value is the memo of an empty sketch (count 0, whisker 0).
type whiskerMemo struct {
	n int64
	w float64
}

func (m *whiskerMemo) whisker(q *QuantileSketch) float64 {
	if n := q.N(); m.n != n {
		m.w, m.n = q.Whisker(), n
	}
	return m.w
}

// probQ1 and probQ3 are the quartile probabilities of the Tukey
// boxplot (Sec. 6.1) — the whisker fence is Q3 + k·(Q3 − Q1) — and
// p2GuardProb positions the outermost interior markers of the ladder
// (a marker placement, not a significance level).
const (
	probQ1      = 0.25
	probQ3      = 0.75
	p2GuardProb = 0.05
)

// p2Probs is the P² marker ladder: the three quartiles the boxplot
// whisker needs, guard markers at the extremes, and intermediate
// markers that keep the parabolic updates stable.
var p2Probs = []float64{0, p2GuardProb, 0.125, probQ1, 0.375, 0.5, 0.625, probQ3, 0.875, 1 - p2GuardProb, 1}

// minQuantCap keeps the exact warm-up buffer comfortably larger than
// the marker ladder.
const minQuantCap = 32

// QuantileSketch is the online operator behind the Sec. 6.1 background
// threshold: it tracks the Tukey boxplot upper whisker of a value
// stream in O(1) space. Up to its capacity it buffers the values and
// Whisker is exactly stats.NewBoxplot on them; past the capacity the
// buffer collapses into an extended-P² marker set (Jain & Chlamtac)
// and the whisker becomes the estimate min(Q3 + 1.5·IQR, max), clamped
// below by Q3 — the quantities the batch whisker is squeezed between.
// Non-finite observations are ignored, matching background.EstimateTau
// dropping NaN (byte deltas are always finite).
type QuantileSketch struct {
	cap      int
	buf      []float64 // exact mode, arrival order
	n        int64     // finite observations consumed
	max      float64
	sketched bool
	h        []float64 // marker heights
	pos      []float64 // marker positions (integer-valued counts)
	want     []float64 // desired marker positions
}

// NewQuantileSketch returns a sketch whose exact warm-up buffer holds
// capacity values (clamped to a small minimum).
func NewQuantileSketch(capacity int) *QuantileSketch {
	if capacity < minQuantCap {
		capacity = minQuantCap
	}
	return &QuantileSketch{cap: capacity, max: math.Inf(-1)}
}

// N returns the number of finite observations consumed.
func (q *QuantileSketch) N() int64 { return q.n }

// Sketched reports whether the exact buffer has collapsed into P²
// markers (quantiles are then estimates, not exact).
func (q *QuantileSketch) Sketched() bool { return q.sketched }

// Max returns the largest observation so far (-Inf before any).
func (q *QuantileSketch) Max() float64 { return q.max }

// Observe consumes one value in O(1).
func (q *QuantileSketch) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	q.n++
	if v > q.max {
		q.max = v
	}
	if !q.sketched {
		q.buf = append(q.buf, v)
		if len(q.buf) > q.cap {
			q.collapse()
		}
		return
	}
	q.p2Add(v)
}

// collapse seeds the P² markers from the exact buffer's sample
// quantiles and drops the buffer.
func (q *QuantileSketch) collapse() {
	m := len(p2Probs)
	q.h = make([]float64, m)
	q.pos = make([]float64, m)
	q.want = make([]float64, m)
	n := float64(len(q.buf))
	for i, p := range p2Probs {
		q.h[i] = stats.Quantile(q.buf, p)
		q.want[i] = 1 + p*(n-1)
		q.pos[i] = math.Round(q.want[i])
	}
	// Marker positions must be strictly increasing integer counts.
	for i := 1; i < m; i++ {
		if q.pos[i] <= q.pos[i-1] {
			q.pos[i] = q.pos[i-1] + 1
		}
	}
	// The top marker owns the whole sample.
	if q.pos[m-1] < n {
		q.pos[m-1] = n
	}
	q.buf = nil
	q.sketched = true
}

// p2Add is one extended-P² update: locate the cell, shift the counts,
// then nudge interior markers toward their desired positions with the
// piecewise-parabolic (falling back to linear) height formula.
func (q *QuantileSketch) p2Add(v float64) {
	m := len(q.h)
	var k int
	switch {
	case v < q.h[0]:
		q.h[0] = v
		k = 0
	case v >= q.h[m-1]:
		if v > q.h[m-1] {
			q.h[m-1] = v
		}
		k = m - 2
	default:
		k = 0
		for k+1 < m-1 && q.h[k+1] <= v {
			k++
		}
	}
	for i := k + 1; i < m; i++ {
		q.pos[i]++
	}
	for i := 1; i < m; i++ {
		q.want[i] += p2Probs[i]
	}
	for i := 1; i < m-1; i++ {
		d := q.want[i] - q.pos[i]
		if (d >= 1 && q.pos[i+1]-q.pos[i] > 1) || (d <= -1 && q.pos[i-1]-q.pos[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1
			}
			hp := q.parabolic(i, s)
			if q.h[i-1] < hp && hp < q.h[i+1] {
				q.h[i] = hp
			} else {
				q.h[i] = q.linear(i, s)
			}
			q.pos[i] += s
		}
	}
}

// parabolic is the P² piecewise-parabolic height prediction for moving
// marker i by d (±1).
func (q *QuantileSketch) parabolic(i int, d float64) float64 {
	np, n0, nn := q.pos[i-1], q.pos[i], q.pos[i+1]
	hp, h0, hn := q.h[i-1], q.h[i], q.h[i+1]
	return h0 + d/(nn-np)*((n0-np+d)*(hn-h0)/(nn-n0)+(nn-n0-d)*(h0-hp)/(n0-np))
}

// linear is the fallback height prediction along the neighbour in the
// movement direction.
func (q *QuantileSketch) linear(i int, d float64) float64 {
	j := i + int(d)
	return q.h[i] + d*(q.h[j]-q.h[i])/(q.pos[j]-q.pos[i])
}

// Quantile returns the p-th sample quantile: exact (type-7, matching
// stats.Quantile) while buffering, interpolated marker heights once
// sketched. It returns NaN before any observation.
func (q *QuantileSketch) Quantile(p float64) float64 {
	if q.n == 0 {
		return math.NaN()
	}
	if !q.sketched {
		return stats.Quantile(q.buf, p)
	}
	if p <= 0 {
		return q.h[0]
	}
	if p >= 1 {
		return q.h[len(q.h)-1]
	}
	i := 0
	for i+1 < len(p2Probs) && p2Probs[i+1] < p {
		i++
	}
	lo, hi := p2Probs[i], p2Probs[i+1]
	frac := (p - lo) / (hi - lo)
	return q.h[i] + frac*(q.h[i+1]-q.h[i])
}

// Whisker returns the Tukey upper-whisker estimate — the Sec. 6.1 raw
// τ. Exact mode reproduces stats.NewBoxplot bit-for-bit; sketch mode
// returns max(Q3, min(Q3 + 1.5·IQR, max)), the interval the true
// whisker always lies in. Returns 0 before any observation, matching
// background.EstimateTau on an empty sample.
func (q *QuantileSketch) Whisker() float64 {
	if q.n == 0 {
		return 0
	}
	if !q.sketched {
		b, err := stats.NewBoxplot(q.buf, stats.DefaultWhiskerK)
		if err != nil {
			return 0
		}
		return b.UpperWhisker
	}
	q1 := q.Quantile(probQ1)
	q3 := q.Quantile(probQ3)
	fence := q3 + stats.DefaultWhiskerK*(q3-q1)
	w := math.Min(fence, q.max)
	return math.Max(w, q3)
}
