package livestats

import (
	"math"
	"math/bits"
	"math/rand/v2"

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
// statistical tolerance documented in STREAMING.md. The draws come from
// a PCG generator (16 bytes of state) seeded per sketch, so a given
// stream always produces the same snapshot.
type RankSketch struct {
	cap    int
	xs, ys []float64
	n      int64
	gen    uint64
	rng    rand.PCG
}

// NewRankSketch returns a reservoir of the given capacity (clamped to a
// small minimum) with a deterministic seed.
func NewRankSketch(capacity int, seed int64) *RankSketch {
	if capacity < minRankCap {
		capacity = minRankCap
	}
	r := &RankSketch{cap: capacity}
	// An odd multiplier spreads nearby seeds over the second state word.
	r.rng.Seed(uint64(seed), uint64(seed)*0x9e3779b97f4a7c15)
	return r
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
	// A slot drawn from [0, n) by multiply-shift (bias below n/2^64);
	// Algorithm R keeps the pair when the slot is below the cap.
	if j, _ := bits.Mul64(r.rng.Uint64(), uint64(r.n)); j < uint64(r.cap) {
		r.xs[j] = x
		r.ys[j] = y
		r.gen++
	}
}

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

// probQ1 and probQ3 are the quartile probabilities of the Tukey
// boxplot (Sec. 6.1): the whisker fence is Q3 + k·(Q3 − Q1).
const (
	probQ1 = 0.25
	probQ3 = 0.75
)

// Bucket geometry of the QuantileSketch. Values below 2^sketchLinearBits
// (8 192, above background.CapBytes) get a bucket each; above, every
// octave [2^e, 2^(e+1)) is cut into sketchPageSize buckets of relative
// width 2^-sketchPageBits. A page is sketchPageSize adjacent buckets:
// sketchLinearPages of them tile the unit-width range, then one per octave.
const (
	sketchLinearBits  = 13
	sketchPageBits    = 7
	sketchPageSize    = 1 << sketchPageBits
	sketchLinearPages = 1 << (sketchLinearBits - sketchPageBits)
	sketchPages       = sketchLinearPages + (64 - sketchLinearBits)
)

// sketchPage is one page of bucket counts. A uint32 bucket holds 8 000
// years of one-per-minute observations.
type sketchPage [sketchPageSize]uint32

// sketchFold is the size of a QuantileSketch's observation buffer.
const sketchFold = 32

// QuantileSketch is the online operator behind the Sec. 6.1 background
// threshold: a counting histogram over byte deltas from which the Tukey
// boxplot upper whisker is read at any stream depth. Observe is a counter
// increment; pages are allocated the first time a value lands in them, so
// a sketch costs what its device's traffic range touches. The zero value
// is an empty sketch.
//
// The histogram remembers every observation as its bucket's smallest
// value — itself below 8 192, rounded down to 8 significant bits above —
// so Quantile and Whisker are exactly stats.Quantile and the
// stats.NewBoxplot whisker of that floored stream: bit-equal to the batch
// statistics of the raw stream wherever the order statistics involved are
// below 8 192, and built from order statistics at most 2^-7 below the raw
// ones otherwise.
//
// Observe buffers its value, and the buffer is folded into the histogram
// when full and before any read. Counts do not depend on order, so every
// read is bit-identical to counting each value at once; the folded
// increments are independent, so their cache misses overlap.
type QuantileSketch struct {
	n     int64
	max   uint64
	nbuf  int
	buf   [sketchFold]uint64
	pages [sketchPages]*sketchPage
}

// sketchBucket locates v's bucket.
func sketchBucket(v uint64) (page, slot int) {
	if v < 1<<sketchLinearBits {
		return int(v >> sketchPageBits), int(v & (sketchPageSize - 1))
	}
	e := bits.Len64(v) - 1
	return sketchLinearPages + e - sketchLinearBits, int(v>>(e-sketchPageBits)) & (sketchPageSize - 1)
}

// sketchValue is the smallest value of a bucket — what the histogram
// remembers of every observation that landed there.
func sketchValue(page, slot int) uint64 {
	if page < sketchLinearPages {
		return uint64(page<<sketchPageBits | slot)
	}
	e := page - sketchLinearPages + sketchLinearBits
	return uint64(sketchPageSize|slot) << (e - sketchPageBits)
}

// Observe consumes one value in O(1).
func (q *QuantileSketch) Observe(v uint64) {
	q.n++
	if v > q.max {
		q.max = v
	}
	q.buf[q.nbuf] = v
	if q.nbuf++; q.nbuf == sketchFold {
		q.fold()
	}
}

// fold counts the buffered observations into the histogram.
func (q *QuantileSketch) fold() {
	for _, v := range q.buf[:q.nbuf] {
		page, slot := sketchBucket(v)
		p := q.pages[page]
		if p == nil {
			p = new(sketchPage)
			q.pages[page] = p
		}
		p[slot]++
	}
	q.nbuf = 0
}

// orderPair returns the remembered values at ascending 0-based ranks k and
// k+1; past the top of the sample the second repeats the first.
func (q *QuantileSketch) orderPair(k int64) (lo, hi float64) {
	var cum int64
	found := false
	for page, p := range q.pages {
		if p == nil {
			continue
		}
		for slot, c := range p {
			if c == 0 {
				continue
			}
			cum += int64(c)
			if !found && cum > k {
				lo, found = float64(sketchValue(page, slot)), true
			}
			if cum > k+1 {
				return lo, float64(sketchValue(page, slot))
			}
		}
	}
	return lo, lo
}

// quantile is the p-th type-7 sample quantile of a folded, non-empty
// sketch, read through stats.Interpolate like stats.Quantile.
func (q *QuantileSketch) quantile(p float64) float64 {
	h := math.Min(math.Max(p, 0), 1) * float64(q.n-1)
	k := math.Floor(h)
	lo, hi := q.orderPair(int64(k))
	return stats.Interpolate(lo, hi, h-k)
}

// Whisker returns the Tukey upper whisker — the Sec. 6.1 raw τ: the
// largest remembered value within the fence Q3 + 1.5·IQR, or the exact
// maximum when the fence clears it. It returns 0 before any observation,
// matching background.EstimateTau on an empty sample.
func (q *QuantileSketch) Whisker() float64 {
	if q.n == 0 {
		return 0
	}
	q.fold()
	q1 := q.quantile(probQ1)
	q3 := q.quantile(probQ3)
	iqr := q3 - q1
	fence := q3 + stats.DefaultWhiskerK*iqr
	if max := float64(q.max); fence >= max {
		return max
	}
	page, slot := sketchBucket(uint64(fence))
	for ; page >= 0; page, slot = page-1, sketchPageSize-1 {
		p := q.pages[page]
		if p == nil {
			continue
		}
		for ; slot >= 0; slot-- {
			if p[slot] != 0 {
				return float64(sketchValue(page, slot))
			}
		}
	}
	// Interpolation can round Q3 an ulp under every observation; the batch
	// whisker then stays at Q3.
	return q3
}
