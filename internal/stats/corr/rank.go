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

// kernelPool lends rank kernels to the three entry points above. Nothing
// is allocated until the first rank statistic is asked for, and a warm
// call allocates nothing.
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

// rankKernel is the one implementation of the rank statistics. It orders
// the pairs by y, then stably by x (stats.Order: radix sort on
// order-preserving integer keys), and reads everything off those two
// sorted runs: both average-rank vectors (ρ is Pearson on them), every tie
// sum of τ-b and of its null variance, and the sequence of dense y ranks
// in (x, y) order, whose inversions are the discordant pairs. All buffers
// are reused across calls of any n.
type rankKernel struct {
	order  stats.Order
	perm   []uint32  // sort permutation: by y, then stably by x
	rx, ry []float64 // average ranks, in input order
	dense  []uint32  // dense y rank (one per tie group), in input order
	seq    []uint32  // dense y ranks in (x, y) order
	merge  []uint32  // merge scratch for the inversion count

	tx, ty tieSums
	joint  float64 // pairs tied in both x and y
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

func (k *rankKernel) pair(x, y []float64, wantRho, wantTau bool) (rho, tau Result) {
	n := len(x)
	if !k.prepare(x, y) {
		return undefined(n), undefined(n)
	}
	if wantRho {
		// Ranks are never too short or unequal in length here.
		rho, _ = Pearson(k.rx[:n], k.ry[:n])
	}
	if wantTau {
		tau = k.kendall(n)
	}
	return rho, tau
}

// prepare fills the kernel's state for the pair (x, y); false means a NaN
// was found and no rank statistic exists.
func (k *rankKernel) prepare(x, y []float64) bool {
	n := len(x)
	if cap(k.perm) < n {
		k.perm = make([]uint32, n)
		k.dense = make([]uint32, n)
		k.seq = make([]uint32, n)
		k.merge = make([]uint32, n)
		k.rx = make([]float64, n)
		k.ry = make([]float64, n)
	}
	perm, dense, seq, rx, ry := k.perm[:n], k.dense[:n], k.seq[:n], k.rx[:n], k.ry[:n]
	for i := range perm {
		perm[i] = uint32(i)
	}
	k.tx, k.ty, k.joint = tieSums{}, tieSums{}, 0

	if !k.order.Argsort(y, perm) {
		return false
	}
	group := uint32(0)
	for i := 0; i < n; group++ {
		j := i
		for j+1 < n && y[perm[j+1]] == y[perm[i]] { //homesight:ignore float-eq — exact tie grouping
			j++
		}
		avg := float64(i+j)/2 + 1
		for _, idx := range perm[i : j+1] {
			ry[idx] = avg
			dense[idx] = group
		}
		k.ty.add(float64(j - i + 1))
		i = j + 1
	}

	// Stable, so within an x tie group y stays ascending: x-tied pairs
	// contribute no inversions, and joint ties are consecutive.
	if !k.order.Argsort(x, perm) {
		return false
	}
	for i := 0; i < n; {
		j := i
		for j+1 < n && x[perm[j+1]] == x[perm[i]] { //homesight:ignore float-eq — exact tie grouping
			j++
		}
		avg := float64(i+j)/2 + 1
		for m := i; m <= j; m++ {
			rx[perm[m]] = avg
			seq[m] = dense[perm[m]]
		}
		k.tx.add(float64(j - i + 1))
		for a := i; a <= j; {
			b := a
			for b+1 <= j && seq[b+1] == seq[a] {
				b++
			}
			t := float64(b - a + 1)
			k.joint += t * (t - 1) / 2
			a = b + 1
		}
		i = j + 1
	}
	return true
}

// kendall reads τ-b and its p-value off the prepared state. With S the
// concordant-minus-discordant count, the p-value is the normal
// approximation with the tie-corrected variance (Kendall 1970):
//
//	var(S) = [n(n-1)(2n+5) - Σt(t-1)(2t+5) - Σu(u-1)(2u+5)]/18
//	       + [Σt(t-1)(t-2) Σu(u-1)(u-2)] / (9 n(n-1)(n-2))
//	       + [Σt(t-1) Σu(u-1)] / (2 n(n-1))
func (k *rankKernel) kendall(size int) Result {
	n := float64(size)
	n0 := n * (n - 1) / 2
	n1, n2 := k.tx.pairs, k.ty.pairs
	discordant := float64(countInversions(k.seq[:size], k.merge[:size]))
	// Pairs untied in both coordinates: n0 - n1 - n2 + n3.
	untied := n0 - n1 - n2 + k.joint
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

// insertionRun is the block length below which countInversions sorts by
// insertion instead of merging.
const insertionRun = 8

// countInversions returns the number of pairs i<j with a[i] > a[j] (equal
// values are not inversions) by bottom-up merge sort, in O(n log n). It
// destroys a; buf is scratch of the same length.
func countInversions(a, buf []uint32) int64 {
	n := len(a)
	var inv int64
	for lo := 0; lo < n; lo += insertionRun {
		hi := min(lo+insertionRun, n)
		for i := lo + 1; i < hi; i++ {
			v, j := a[i], i
			for j > lo && a[j-1] > v {
				a[j] = a[j-1]
				j--
			}
			a[j] = v
			inv += int64(i - j)
		}
	}
	for width := insertionRun; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := min(lo+width, n), min(lo+2*width, n)
			// A run pair already in order — common when x and y are
			// strongly concordant — has no inversions to count.
			if mid == hi || a[mid-1] <= a[mid] {
				copy(buf[lo:hi], a[lo:hi])
				continue
			}
			i, j, out := lo, mid, lo
			for i < mid && j < hi {
				if a[j] < a[i] {
					buf[out] = a[j]
					inv += int64(mid - i)
					j++
				} else {
					buf[out] = a[i]
					i++
				}
				out++
			}
			out += copy(buf[out:], a[i:mid])
			copy(buf[out:], a[j:hi])
		}
		a, buf = buf, a
	}
	return inv
}
