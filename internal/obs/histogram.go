package obs

import (
	"math"
	"sync/atomic"
)

// Histogram is a fixed-bucket distribution metric: observations are
// counted into the first bucket whose upper bound is >= the value
// (right-closed, the Prometheus `le` contract and the same convention as
// internal/stats.Histogram), with an implicit +Inf overflow bucket, a
// running sum and a total count. All methods are safe for concurrent
// use; Observe is lock-free.
type Histogram struct {
	bounds []float64      // strictly increasing upper bounds
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sum    atomicFloat
}

// newHistogram validates and copies the bounds. NaN observations are
// dropped (they are not a latency), mirroring stats.NewHistogram's
// treatment of NaN samples.
func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	bs := append([]float64(nil), bounds...)
	for i := 1; i < len(bs); i++ {
		if bs[i] <= bs[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) { // NaN: not a measurement
		return
	}
	// Linear scan: bucket lists are short (≤ ~15) and branch-predictable,
	// so this beats sort.SearchFloat64s's call overhead on the hot path.
	i := len(h.bounds)
	for b, bound := range h.bounds {
		if v <= bound {
			i = b
			break
		}
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// Bounds returns the configured upper bounds (without +Inf).
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// BucketCounts returns the per-bucket (non-cumulative) counts; the last
// entry is the +Inf overflow bucket. The snapshot is not atomic across
// buckets, but each bucket's value is exact.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// atomicFloat accumulates a float64 with a CAS loop.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// DefBuckets is a general-purpose latency bucket ladder in seconds,
// spanning microseconds (lock handoffs) to minutes (full experiment
// runs). The values avoid the paper's named thresholds on purpose: these
// are operational units, not analysis parameters.
var DefBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 0.25, 1, 2.5, 10, 30, 120,
}
