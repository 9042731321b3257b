package corr

import (
	"math"
	"sync"

	"homesight/internal/stats"
	"homesight/internal/stats/dist"
)

// Spearman returns Spearman's rank correlation ρ with a two-sided p-value
// from the t-approximation on the ranks (the method used by R's cor.test
// for n > 1290 and a sound approximation for the window lengths homesight
// works at). A NaN in either sample gives a NaN coefficient with p-value 1,
// like a constant side; -0 and +0 tie.
func Spearman(x, y []float64) (Result, error) {
	rho, _, err := rankPair(x, y, true, false)
	return rho, err
}

// Kendall returns Kendall's τ-b (tie-adjusted) with a two-sided p-value from
// the normal approximation with the tie-corrected null variance, in
// O(n log n). NaN and signed zeros are handled as in Spearman.
func Kendall(x, y []float64) (Result, error) {
	_, tau, err := rankPair(x, y, false, true)
	return tau, err
}

// SpearmanKendall returns both rank coefficients of Definition 1 from one
// pass of the rank kernel — the two sorts they share are done once — and
// each equals, bit for bit, what Spearman and Kendall return on their own.
func SpearmanKendall(x, y []float64) (rho, tau Result, err error) {
	return rankPair(x, y, true, true)
}

// Complete returns Pearson's r, Spearman's ρ and Kendall's τ-b over the
// complete pairs of x and y — the positions below the shorter length
// where neither is NaN — and their number n. Each coefficient equals, bit
// for bit, Pearson and SpearmanKendall on the compacted pairs; with n < 3
// all three are the zero Result. The compacted pairs live in the kernel's
// scratch, so a warm call allocates nothing.
func Complete(x, y []float64) (r, rho, tau Result, n int) {
	k := kernelPool.Get().(*rankKernel)
	r, rho, tau, n = k.complete(x, y, nil)
	kernelPool.Put(k)
	return r, rho, tau, n
}

// Ranked is the ascending order of one series' observed values — the half
// of the rank kernel's work that depends on y alone — computed once and
// paired with any number of x series by Complete. Each x keeps only the
// positions it observes too, which filters the order in O(n); the average
// ranks are recomputed from the filtered order, since they depend on which
// minutes the pair shares. The zero value is empty; Rank fills it.
type Ranked struct {
	y    []float64
	pos  []uint32 // positions of y's observed values, ascending by value, then by position
	keys []uint64 // stats.OrderKey of y at pos
}

// Rank orders y's observed values, reusing r's buffers. r refers to y
// until the next Rank, so y must not change in between.
func (r *Ranked) Rank(y []float64) {
	r.y, r.pos = y, r.pos[:0]
	for i, v := range y {
		if !math.IsNaN(v) {
			r.pos = append(r.pos, uint32(i))
		}
	}
	k := kernelPool.Get().(*rankKernel)
	k.order.Argsort(y, r.pos) // every indexed value is observed
	r.keys = append(r.keys[:0], k.order.Keys()...)
	kernelPool.Put(k)
}

// Complete is the package-level Complete of x and the ranked series, bit
// for bit, without sorting the ranked side again.
func (r *Ranked) Complete(x []float64) (pearson, rho, tau Result, n int) {
	k := kernelPool.Get().(*rankKernel)
	pearson, rho, tau, n = k.complete(x, r.y, r)
	kernelPool.Put(k)
	return pearson, rho, tau, n
}

// kernelPool lends rank kernels to the entry points above, one per P in
// steady state. Nothing is allocated until the first rank statistic is
// asked for, and a warm call allocates nothing.
var kernelPool = sync.Pool{New: func() any { return new(rankKernel) }}

func rankPair(x, y []float64, wantRho, wantTau bool) (rho, tau Result, err error) {
	if len(x) != len(y) {
		return Result{}, Result{}, ErrLength
	}
	if len(x) < 3 {
		return Result{}, Result{}, ErrTooShort
	}
	k := kernelPool.Get().(*rankKernel)
	rho, tau = k.pair(x, y, wantRho, wantTau)
	kernelPool.Put(k)
	return rho, tau, nil
}

// undefined is the never-significant result of a coefficient that does not
// exist: a constant side, or a NaN observation.
func undefined(n int) Result {
	return Result{Coeff: math.NaN(), PValue: 1, N: n}
}

// unpaired marks a position of the complete-pair index that either side
// leaves unobserved.
const unpaired = ^uint32(0)

// rankKernel is the one implementation of the rank statistics. It takes
// the pairs in ascending y order (sorted here, or filtered from a Ranked),
// stably sorts them by x (stats.Order: radix sort of packed order-
// preserving keys) and reads everything off those two sorted runs: both
// average-rank vectors (ρ is Pearson on them), every tie sum of τ-b and of
// its null variance, and — by a Fenwick tree over the dense y ranks, taken
// in (x, y) order — the discordant pairs. All buffers are reused across
// calls of any n.
type rankKernel struct {
	order  stats.Order
	perm   []uint32  // pairs by y, then stably by x
	rx, ry []float64 // average ranks, in pair order
	dense  []uint32  // dense y rank (one per tie group), in pair order
	fen    []uint32  // Fenwick tree of the dense y ranks seen so far

	cx, cy []float64 // complete pairs
	cidx   []uint32  // series position → complete-pair index, or unpaired
	ykeys  []uint64  // OrderKeys of cy in ascending order (Ranked path)

	tx, ty tieSums
}

// tieSums are the sums over one coordinate's tie groups (of size t) that
// τ-b and its tie-corrected variance need.
type tieSums struct {
	pairs float64 // Σ t(t−1)/2
	v     float64 // Σ t(t−1)(2t+5)
	t1    float64 // Σ t(t−1)
	t2    float64 // Σ t(t−1)(t−2)
}

func (s *tieSums) add(t float64) {
	s.pairs += t * (t - 1) / 2
	s.v += t * (t - 1) * (2*t + 5)
	s.t1 += t * (t - 1)
	s.t2 += t * (t - 1) * (t - 2)
}

// grow sizes every buffer for series of up to n values.
func (k *rankKernel) grow(n int) {
	if cap(k.perm) >= n {
		return
	}
	k.perm = make([]uint32, n)
	k.rx = make([]float64, n)
	k.ry = make([]float64, n)
	k.dense = make([]uint32, n)
	k.fen = make([]uint32, n+1)
	k.cx = make([]float64, n)
	k.cy = make([]float64, n)
	k.cidx = make([]uint32, n)
	k.ykeys = make([]uint64, n)
}

// pair ranks y itself and hands its order to ranked.
func (k *rankKernel) pair(x, y []float64, wantRho, wantTau bool) (rho, tau Result) {
	n := len(x)
	k.grow(n)
	perm := k.perm[:n]
	for i := range perm {
		perm[i] = uint32(i)
	}
	if !k.order.Argsort(y, perm) {
		return undefined(n), undefined(n)
	}
	return k.ranked(x, perm, k.order.Keys(), wantRho, wantTau)
}

// complete compacts the pairs both x and y observe into the kernel's
// scratch and evaluates all three coefficients on them. With r == nil it
// sorts the compacted y; otherwise r ranks y, and its order is filtered to
// the compacted pairs — the same permutation the sort would produce, since
// both order equal values by position.
func (k *rankKernel) complete(x, y []float64, r *Ranked) (pearson, rho, tau Result, n int) {
	m := min(len(x), len(y))
	k.grow(len(y))
	cx, cy, cidx := k.cx[:0], k.cy[:0], k.cidx[:len(y)]
	for i := 0; i < m; i++ {
		if math.IsNaN(x[i]) || math.IsNaN(y[i]) {
			cidx[i] = unpaired
			continue
		}
		cidx[i] = uint32(len(cx))
		cx, cy = append(cx, x[i]), append(cy, y[i])
	}
	n = len(cx)
	if n < 3 {
		return Result{}, Result{}, Result{}, n
	}
	// Lengths are equal and ≥ 3: Pearson cannot fail.
	pearson, _ = Pearson(cx, cy)

	perm := k.perm[:n]
	var ykeys []uint64
	if r == nil {
		for i := range perm {
			perm[i] = uint32(i)
		}
		k.order.Argsort(cy, perm) // cy holds no NaN
		ykeys = k.order.Keys()
	} else {
		for i := m; i < len(y); i++ {
			cidx[i] = unpaired
		}
		ykeys = k.ykeys[:n]
		j := 0
		for t, pos := range r.pos {
			if c := cidx[pos]; c != unpaired {
				perm[j], ykeys[j] = c, r.keys[t]
				j++
			}
		}
	}
	rho, tau = k.ranked(cx, perm, ykeys, true, true)
	return pearson, rho, tau, n
}

// ranked computes the rank coefficients of the pairs (x[i], y[i]) given
// perm, their indices in ascending y order with equal values by index, and
// ykeys, the y OrderKeys in that order. It reorders perm.
func (k *rankKernel) ranked(x []float64, perm []uint32, ykeys []uint64, wantRho, wantTau bool) (rho, tau Result) {
	n := len(perm)
	rx, ry, dense := k.rx[:n], k.ry[:n], k.dense[:n]
	k.tx, k.ty = tieSums{}, tieSums{}

	groups := 0
	for i := 0; i < n; groups++ {
		j := i
		for j+1 < n && ykeys[j+1] == ykeys[i] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for _, idx := range perm[i : j+1] {
			ry[idx] = avg
			dense[idx] = uint32(groups)
		}
		k.ty.add(float64(j - i + 1))
		i = j + 1
	}

	// Stable, so within an x tie group y stays ascending: x-tied pairs are
	// never counted discordant, and joint ties are consecutive. ykeys may
	// be the Order's own buffer and is dead from here on.
	if !k.order.Argsort(x, perm) {
		return undefined(n), undefined(n)
	}
	xkeys := k.order.Keys()
	fen := k.fen[:groups+1]
	clear(fen)
	// joint counts the pairs tied in both coordinates: a member of a run
	// of equal (x, y) ties with each earlier member of the run. Integer
	// sums are exact, as the float sum of the same whole terms was.
	var discordant, joint int64
	for i := 0; i < n; {
		j := i
		for j+1 < n && xkeys[j+1] == xkeys[i] {
			j++
		}
		avg := float64(i+j)/2 + 1
		k.tx.add(float64(j - i + 1))
		var run int64      // earlier members of the current (x, y) run
		prev := ^uint32(0) // dense y rank of the previous pair in the x group
		for m := i; m <= j; m++ {
			idx := perm[m]
			rx[idx] = avg
			d := dense[idx]
			if d == prev {
				run++
			} else {
				run = 0
			}
			joint += run
			prev = d
			if wantTau {
				// Of the m pairs before this one in (x, y) order, those
				// with a larger y rank are discordant with it.
				seen := 0
				for f := int(d) + 1; f > 0; f &= f - 1 {
					seen += int(fen[f])
				}
				discordant += int64(m - seen)
				for f := int(d) + 1; f < len(fen); f += f & -f {
					fen[f]++
				}
			}
		}
		i = j + 1
	}

	if wantRho {
		// Ranks are never too short or unequal in length here.
		rho, _ = Pearson(rx, ry)
	}
	if wantTau {
		tau = k.kendall(n, discordant, joint)
	}
	return rho, tau
}

// kendall reads τ-b and its p-value off the tie sums and the counts of
// discordant and jointly tied pairs. With S the concordant-minus-
// discordant count, the p-value is the normal approximation with the
// tie-corrected variance (Kendall 1970):
//
//	var(S) = [n(n-1)(2n+5) - Σt(t-1)(2t+5) - Σu(u-1)(2u+5)]/18
//	       + [Σt(t-1)(t-2) Σu(u-1)(u-2)] / (9 n(n-1)(n-2))
//	       + [Σt(t-1) Σu(u-1)] / (2 n(n-1))
func (k *rankKernel) kendall(size int, disc, joint int64) Result {
	n := float64(size)
	n0 := n * (n - 1) / 2
	n1, n2 := k.tx.pairs, k.ty.pairs
	discordant := float64(disc)
	// Pairs untied in both coordinates: n0 - n1 - n2 + n3.
	untied := n0 - n1 - n2 + float64(joint)
	concordant := untied - discordant
	s := concordant - discordant

	den := math.Sqrt((n0 - n1) * (n0 - n2))
	if den == 0 {
		return undefined(size)
	}
	tau := s / den
	if tau > 1 {
		tau = 1
	} else if tau < -1 {
		tau = -1
	}

	v0 := n * (n - 1) * (2*n + 5)
	v1 := k.tx.t1 * k.ty.t1
	v2 := k.tx.t2 * k.ty.t2
	variance := (v0-k.tx.v-k.ty.v)/18 + v2/(9*n*(n-1)*(n-2)) + v1/(2*n*(n-1))
	if variance <= 0 {
		return Result{Coeff: tau, PValue: 1, N: size}
	}
	z := s / math.Sqrt(variance)
	return Result{Coeff: tau, PValue: 2 * dist.StdNormal.Survival(math.Abs(z)), N: size}
}
