package stats

import (
	"math/bits"
	"sync"
)

// UpperWhisker returns NewBoxplot(xs, k).UpperWhisker over xs's observed
// values — the largest observation no greater than Q3 + k·IQR, the
// paper's τ (Sec. 6.1) — without sorting: the two quartiles are read off
// four order statistics, which an MSD radix select over OrderKey keys
// finds in a few linear passes, and the whisker is one more scan. NaNs are
// unobserved and skipped; xs is not modified. It returns ErrEmpty when
// nothing is observed.
//
// It is bit-equal to the sorting definition except in the sign of a zero:
// OrderKey folds -0 onto +0, so a quartile read off a -0 comes back +0
// (the two compare equal, and so do the whiskers).
func UpperWhisker(xs []float64, k float64) (float64, error) {
	s := whiskerPool.Get().(*whiskerScratch)
	defer whiskerPool.Put(s)
	if cap(s.keys) < len(xs) {
		s.keys = make([]uint64, len(xs))
		s.tmp = make([]uint64, len(xs))
	}
	keys := s.keys[:len(xs)]
	n := 0
	or, and := uint64(0), ^uint64(0)
	for _, x := range xs {
		k := OrderKey(x)
		keys[n] = k
		if x == x { //homesight:ignore float-eq — the NaN self-inequality test
			n++
			or, and = or|k, and&k
		}
	}
	keys = keys[:n]
	switch n {
	case 0:
		return 0, ErrEmpty
	case 1:
		return keyFloat(keys[0]), nil
	}
	lo1, frac1 := quantileRank(n, 0.25)
	lo3, frac3 := quantileRank(n, 0.75)
	q := selectPairs(keys, s.tmp, or^and, [2]int{lo1, lo3})
	q1 := Interpolate(keyFloat(q[0][0]), keyFloat(q[0][1]), frac1)
	q3 := Interpolate(keyFloat(q[1][0]), keyFloat(q[1][1]), frac3)
	hiFence := q3 + k*(q3-q1)
	if hiFence != hiFence { //homesight:ignore float-eq — the NaN self-inequality test
		return q3, nil // no observation is <= a NaN fence
	}

	// The whisker is the largest key at or below the fence's. No observed
	// value has key 0, so 0 means nothing is inside and the whisker falls
	// back to Q3, as NewBoxplot's does.
	fence, whisker := OrderKey(hiFence), uint64(0)
	for _, key := range keys {
		if key > fence {
			key = 0
		}
		whisker = max(whisker, key)
	}
	if whisker == 0 {
		return q3, nil
	}
	return keyFloat(whisker), nil
}

// whiskerScratch is UpperWhisker's key buffer and the compaction buffer of
// its selection, pooled so a warm call allocates nothing.
type whiskerScratch struct{ keys, tmp []uint64 }

var whiskerPool = sync.Pool{New: func() any { return new(whiskerScratch) }}

// selectPairs returns, for each r in ranks, the keys of ranks r and r+1
// (from 0) of keys, which it leaves untouched; differ has a bit set
// wherever the keys disagree, every r+1 must be < len(keys), and tmp must
// be as long. The first histogram is shared by both searches.
func selectPairs(keys, tmp []uint64, differ uint64, ranks [2]int) (pairs [2][2]uint64) {
	if differ == 0 {
		return [2][2]uint64{{keys[0], keys[0]}, {keys[0], keys[0]}}
	}
	shift := digitBelow(differ)
	count := histogram(keys, shift)
	for i, r := range ranks {
		pairs[i][0], pairs[i][1] = descend(keys, tmp, shift, count, r)
	}
	return pairs
}

// selectDigit is the width of the selection's digits.
const selectDigit = 8

// digitBelow returns the shift of the selectDigit-bit digit that ends at
// the highest set bit of differ (or starts at bit 0).
func digitBelow(differ uint64) uint {
	return uint(max(bits.Len64(differ), selectDigit) - selectDigit)
}

// histogram counts set's digits at shift.
func histogram(set []uint64, shift uint) (count [1 << selectDigit]int) {
	for _, k := range set {
		count[(k>>(shift&63))&(1<<selectDigit-1)]++
	}
	return count
}

// descend is an MSD radix select for ranks r and r+1 of set, whose digits
// at shift count holds. Each round keeps, by branch-free compaction into
// tmp, only the bucket holding rank r and histograms the digit just below
// the highest bit on which the kept keys still differ; a round in which
// the two ranks fall into different buckets ends the search with one
// min/max scan, and a set whose keys all agree ends it outright. Every
// round settles at least one more digit, so a search costs at most eight
// rounds, and traffic series, whose low mantissa bits are zero, need two
// or three.
func descend(set, tmp []uint64, shift uint, count [1 << selectDigit]int, r int) (lo, hi uint64) {
	const mask = 1<<selectDigit - 1
	for {
		b, below := 0, 0
		for below+count[b] <= r {
			below += count[b]
			b++
		}
		if r+1 == below+count[b] {
			// Rank r closes bucket b; rank r+1 opens the next non-empty one.
			next := b + 1
			for count[next] == 0 {
				next++
			}
			lo, hi = 0, ^uint64(0)
			for _, k := range set {
				switch int((k >> (shift & 63)) & mask) {
				case b:
					lo = max(lo, k)
				case next:
					hi = min(hi, k)
				}
			}
			return lo, hi
		}
		// d-1 wraps to all ones exactly when k's digit is b, so the write
		// index advances without a branch.
		m := 0
		for _, k := range set {
			d := (k>>(shift&63))&mask ^ uint64(b)
			tmp[m] = k
			m += int((d - 1) >> 63)
		}
		set, r = tmp[:m], r-below
		or, and := uint64(0), ^uint64(0)
		for _, k := range set {
			or, and = or|k, and&k
		}
		if or == and {
			return set[r], set[r+1]
		}
		shift = digitBelow(or ^ and)
		count = histogram(set, shift)
	}
}
