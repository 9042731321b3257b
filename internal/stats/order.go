package stats

import "math"

// OrderKey maps f to a uint64 whose unsigned order is the numeric order of
// the floats: negative values have every bit flipped, non-negative ones the
// sign bit set, and -0 is normalised to +0 first so the two zeros share a
// key (they compare equal, so they must tie). ±Inf order as floats do. NaN
// has no place in a numeric order; callers screen it out (Order.Argsort
// reports it).
func OrderKey(f float64) uint64 {
	if f == 0 { //homesight:ignore float-eq — folds -0 onto +0, exact by definition
		return 1 << 63
	}
	b := math.Float64bits(f)
	// Arithmetic shift smears the sign bit: all ones for negatives (flip
	// everything), zero for positives (flip the sign bit only).
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// Order is the reusable scratch of the ordering primitive behind Ranks and
// the rank kernel of internal/stats/corr: a stable least-significant-digit
// radix sort over OrderKey, eight bits at a time, that skips every byte on
// which all keys agree (integer byte counts leave the low mantissa bytes
// zero, so traffic series sort in three or four passes, not eight). The
// zero value is ready to use; buffers grow to the largest n seen and are
// reused, so a warm Argsort allocates nothing.
type Order struct {
	keys []uint64
	tmp  []uint32
}

// Argsort stably reorders perm — a permutation of 0..len(xs)-1 — so that
// xs[perm[i]] ascends: entries with equal values keep their incoming
// relative order, which is what lets two calls (by y, then by x) produce
// the lexicographic (x, y) order. It reports false, leaving perm in an
// unspecified order, when xs holds a NaN.
func (o *Order) Argsort(xs []float64, perm []uint32) bool {
	n := len(xs)
	if n == 0 {
		return true
	}
	if cap(o.keys) < n {
		o.keys = make([]uint64, n)
		o.tmp = make([]uint32, n)
	}
	keys, src, dst := o.keys[:n], perm[:n], o.tmp[:n]

	// differ collects every bit position on which some key departs from
	// the first; a byte of zeros there is constant across the sample.
	var differ uint64
	first := OrderKey(xs[0])
	for i, x := range xs {
		if x != x { //homesight:ignore float-eq — the NaN self-inequality test
			return false
		}
		k := OrderKey(x)
		keys[i] = k
		differ |= k ^ first
	}

	for shift := uint(0); shift < 64; shift += 8 {
		if (differ>>shift)&0xff == 0 {
			continue
		}
		var offset [256]uint32
		for _, k := range keys {
			offset[(k>>shift)&0xff]++
		}
		sum := uint32(0)
		for b, c := range offset {
			offset[b] = sum
			sum += c
		}
		for _, idx := range src {
			b := (keys[idx] >> shift) & 0xff
			dst[offset[b]] = idx
			offset[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &perm[0] {
		copy(perm, src)
	}
	return true
}
