package stats

import (
	"math"
	"sync"
)

// OrderKey maps f to a uint64 whose unsigned order is the numeric order of
// the floats: negative values have every bit flipped, non-negative ones the
// sign bit set, and -0 is normalised to +0 first so the two zeros share a
// key (they compare equal, so they must tie). ±Inf order as floats do. NaN
// has no place in a numeric order; callers screen it out (Order.Argsort
// reports it).
func OrderKey(f float64) uint64 {
	// Adding +0 turns -0 into +0 and leaves every other float as it is,
	// without a branch on the zeros that fill an idle traffic series.
	b := math.Float64bits(f + 0)
	// Arithmetic shift smears the sign bit: all ones for negatives (flip
	// everything), zero for positives (flip the sign bit only).
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// keyFloat inverts OrderKey. The two zeros share a key, so a -0 comes back
// as +0; every other float comes back bit for bit.
func keyFloat(k uint64) float64 {
	if k>>63 == 1 {
		return math.Float64frombits(k ^ 1<<63)
	}
	return math.Float64frombits(^k)
}

// keyed is one record of the sort: an OrderKey packed with the index it
// belongs to, so every pass reads its keys sequentially instead of through
// the permutation.
type keyed struct {
	key uint64
	idx uint32
}

// Below insertionMax records Argsort sorts by insertion: the windows of
// Figs. 6-8 hold 7 to 56 bins, where a radix pass's histogram would cost
// more than the records it orders. Below wideDigitMin it sorts eight bits
// per pass, from there on eleven, where the 2 048-bucket histogram is
// amortised over enough records to save a pass.
const (
	insertionMax = 32
	wideDigitMin = 4096
)

// Order is the reusable scratch of the ordering primitive behind Ranks, the
// rank kernel of internal/stats/corr and corr.Ranked: a stable least-
// significant-digit radix sort of packed (OrderKey, index) records that
// skips every digit on which all keys agree (integer byte counts leave the
// low mantissa bits zero, so traffic series sort in three or four passes).
// The zero value is ready to use; buffers grow to the largest n seen and
// are reused, so a warm Argsort allocates nothing.
type Order struct {
	recs, tmp []keyed
	keys      []uint64
}

// Argsort stably reorders perm — distinct indices into xs — so that
// xs[perm[i]] ascends: entries with equal values keep their incoming
// relative order, which is what lets two calls (by y, then by x) produce
// the lexicographic (x, y) order. It reports false, leaving perm in an
// unspecified order, when an indexed value is NaN.
func (o *Order) Argsort(xs []float64, perm []uint32) bool {
	n := len(perm)
	o.grow(n)
	recs, keys := o.recs[:n], o.keys[:n]
	o.keys = keys
	if n == 0 {
		return true
	}
	// differ collects every bit position on which some key departs from
	// the first; a digit of zeros there is constant across the sample.
	var differ uint64
	first := OrderKey(xs[perm[0]])
	for i, idx := range perm {
		x := xs[idx]
		if x != x { //homesight:ignore float-eq — the NaN self-inequality test
			return false
		}
		k := OrderKey(x)
		recs[i] = keyed{k, idx}
		differ |= k ^ first
	}
	for i, r := range o.sortRecords(recs, differ) {
		perm[i], keys[i] = r.idx, r.key
	}
	return true
}

// Sort sorts xs ascending in place with the same radix sort, for callers
// that want the values rather than a permutation (the KS tests of
// Definition 2). It folds -0 onto +0, as OrderKey does; NaNs go to the
// ends, by their sign bit.
func Sort(xs []float64) {
	if len(xs) < 2 {
		return
	}
	o := orderPool.Get().(*Order)
	o.grow(len(xs))
	recs := o.recs[:len(xs)]
	var differ uint64
	first := OrderKey(xs[0])
	for i, x := range xs {
		k := OrderKey(x)
		recs[i].key = k
		differ |= k ^ first
	}
	for i, r := range o.sortRecords(recs, differ) {
		xs[i] = keyFloat(r.key)
	}
	orderPool.Put(o)
}

var orderPool = sync.Pool{New: func() any { return new(Order) }}

// grow sizes the buffers for n records.
func (o *Order) grow(n int) {
	if cap(o.recs) < n {
		o.recs = make([]keyed, n)
		o.tmp = make([]keyed, n)
		o.keys = make([]uint64, n)
	}
}

// sortRecords stably orders recs by key — by insertion below insertionMax,
// by radix passes above — and returns the slice holding the result; differ
// has a bit set wherever some key departs from the first.
func (o *Order) sortRecords(recs []keyed, differ uint64) []keyed {
	n := len(recs)
	if n <= insertionMax {
		for i := 1; i < n; i++ {
			r, j := recs[i], i
			for ; j > 0 && recs[j-1].key > r.key; j-- {
				recs[j] = recs[j-1]
			}
			recs[j] = r
		}
		return recs
	}
	width := uint(8)
	if n >= wideDigitMin {
		width = 11
	}
	return radixPasses(recs, o.tmp[:n], differ, width)
}

// radixPasses sorts recs by key, one width-bit digit per pass from the
// least significant up, skipping the digits differ says are constant. It
// ping-pongs between recs and tmp and returns whichever holds the result.
func radixPasses(recs, tmp []keyed, differ uint64, width uint) []keyed {
	mask := uint64(1)<<width - 1
	var count [1 << 11]uint32
	for shift := uint(0); shift < 64; shift += width {
		if (differ>>shift)&mask == 0 {
			continue
		}
		s := shift & 63
		buckets := count[:mask+1]
		clear(buckets)
		for _, r := range recs {
			buckets[(r.key>>s)&mask]++
		}
		sum := uint32(0)
		for b, c := range buckets {
			buckets[b] = sum
			sum += c
		}
		for _, r := range recs {
			b := (r.key >> s) & mask
			tmp[buckets[b]] = r
			buckets[b]++
		}
		recs, tmp = tmp, recs
	}
	return recs
}

// Keys returns the OrderKeys of the last Argsort's input in sorted order:
// Keys()[i] == OrderKey(xs[perm[i]]). Equal keys are equal values, so tie
// groups are runs of equal keys. The slice is the Order's scratch, valid
// until the next Argsort.
func (o *Order) Keys() []uint64 { return o.keys }
