package stats

import (
	"math/bits"
	"sort"
)

// UpperWhisker returns NewBoxplot(xs, k).UpperWhisker — the largest
// observation no greater than Q3 + k·IQR, the paper's τ (Sec. 6.1) —
// bit for bit, without sorting: the two quartiles are read off four order
// statistics, which selection finds in O(n), and the whisker is one more
// scan. It reorders xs, and xs must hold no NaN (a NaN has no rank;
// background.EstimateTau screens them out). It returns ErrEmpty for an
// empty sample.
func UpperWhisker(xs []float64, k float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, ErrEmpty
	}
	if n == 1 {
		return xs[0], nil
	}
	lo1, frac1 := quantileRank(n, 0.25)
	lo3, frac3 := quantileRank(n, 0.75)
	// The upper pair first: it leaves the lo3+1 smallest observations in
	// xs[:lo3+1], which is where the lower pair lives.
	a3, b3 := orderPair(xs, lo3)
	a1, b1 := a3, b3
	if lo1 < lo3 {
		a1, b1 = orderPair(xs[:lo3+1], lo1)
	}
	q1, q3 := interpolate(a1, b1, frac1), interpolate(a3, b3, frac3)
	hiFence := q3 + k*(q3-q1)

	whisker, inside := q3, false
	for _, x := range xs {
		if x <= hiFence && (!inside || x > whisker) {
			whisker, inside = x, true
		}
	}
	return whisker, nil
}

// orderPair partially orders a so that a[r] is its rank-r order statistic
// (ranks from 0) with nothing larger before it and nothing smaller after,
// and returns ranks r and r+1; r+1 must be < len(a).
func orderPair(a []float64, r int) (lo, hi float64) {
	selectRank(a, r, 4*bits.Len(uint(len(a))))
	hi = a[r+1]
	for _, x := range a[r+2:] {
		if x < hi {
			hi = x
		}
	}
	return a[r], hi
}

// selectRank is quickselect with a median-of-three pivot and a three-way
// partition: a sample that is half zeros (idle minutes) is settled by the
// one round that pivots on zero. After `rounds` partitions it sorts what
// is left, which bounds a run of bad pivots at O(n log n).
func selectRank(a []float64, r, rounds int) {
	lo, hi := 0, len(a)
	for ; hi-lo > 1; rounds-- {
		if rounds == 0 {
			sort.Float64s(a[lo:hi])
			return
		}
		p := median3(a[lo], a[lo+(hi-lo)/2], a[hi-1])
		// a[lo:lt] < p, a[lt:i] == p, a[gt:hi] > p
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch x := a[i]; {
			case x < p:
				a[lt], a[i] = x, a[lt]
				lt++
				i++
			case x > p:
				gt--
				a[i], a[gt] = a[gt], x
			default:
				i++
			}
		}
		switch {
		case r < lt:
			hi = lt
		case r >= gt:
			lo = gt
		default:
			return
		}
	}
}

func median3(a, b, c float64) float64 {
	if b < a {
		a, b = b, a
	}
	if c < b {
		b = c
		if b < a {
			b = a
		}
	}
	return b
}
