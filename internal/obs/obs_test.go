package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestRegistryRenderGolden pins the exact exposition output: family and
// series ordering, HELP/TYPE lines, label and help escaping, histogram
// cumulative buckets. Any change here is a contract change for scrapers.
func TestRegistryRenderGolden(t *testing.T) {
	reg := NewRegistry()

	// Registered deliberately out of name order: render must sort.
	reg.Gauge("test_queue_depth", "Queue depth.").Set(3)
	c := reg.Counter("test_events_total", `Events with a "quoted" help and backslash \.`)
	c.Add(2)
	vec := reg.CounterVec("test_drops_total", "Drops by reason.", "reason")
	vec.With("malformed").Add(4)
	vec.With(`weird"value\n`).Inc()
	h := reg.Histogram("test_latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.1) // boundary: lands in le="0.1"
	h.Observe(0.7)
	h.Observe(5) // overflow: +Inf only

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	want := `# HELP test_drops_total Drops by reason.
# TYPE test_drops_total counter
test_drops_total{reason="malformed"} 4
test_drops_total{reason="weird\"value\\n"} 1
# HELP test_events_total Events with a "quoted" help and backslash \\.
# TYPE test_events_total counter
test_events_total 2
# HELP test_latency_seconds Latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.1"} 2
test_latency_seconds_bucket{le="1"} 3
test_latency_seconds_bucket{le="+Inf"} 4
test_latency_seconds_sum 5.85
test_latency_seconds_count 4
# HELP test_queue_depth Queue depth.
# TYPE test_queue_depth gauge
test_queue_depth 3
`
	if got := b.String(); got != want {
		t.Errorf("render mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRegistryIdempotent pins the sharing contract: the same name, type
// and label key returns the same instrument; a schema change panics.
func TestRegistryIdempotent(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("test_total", "help")
	b := reg.Counter("test_total", "different help is fine")
	if a != b {
		t.Error("re-registering the same counter returned a different instrument")
	}
	v1 := reg.CounterVec("test_labeled_total", "h", "reason")
	v2 := reg.CounterVec("test_labeled_total", "h", "reason")
	if v1.With("x") != v2.With("x") {
		t.Error("re-registering the same vec returned a different series")
	}

	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	reg.Gauge("test_total", "now a gauge")
}

// TestHistogramBoundaries pins the right-closed bucket convention shared
// with internal/stats.Histogram: a value equal to an upper bound counts
// in that bound's bucket, values beyond the last bound go to +Inf only.
func TestHistogramBoundaries(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 4, 4.5, math.Inf(1), math.NaN()} {
		h.Observe(v)
	}
	counts := h.BucketCounts()
	want := []int64{2, 2, 1, 2} // [<=1]=0.5,1  (1,2]=1.0000001,2  (2,4]=4  (4,Inf]=4.5,+Inf
	if len(counts) != len(want) {
		t.Fatalf("BucketCounts len = %d, want %d", len(counts), len(want))
	}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, counts[i], want[i], counts)
		}
	}
	if h.Count() != 7 {
		t.Errorf("Count = %d, want 7 (NaN dropped)", h.Count())
	}
	if !math.IsInf(h.Sum(), 1) {
		t.Errorf("Sum = %g, want +Inf", h.Sum())
	}
}

func TestHistogramValidation(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newHistogram(%v) did not panic", bounds)
				}
			}()
			newHistogram(bounds)
		}()
	}
}

// TestInstrumentsConcurrent exercises the lock-free paths under the race
// detector and checks nothing is lost.
func TestInstrumentsConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_c_total", "")
	g := reg.Gauge("test_g", "")
	h := reg.Histogram("test_h_seconds", "", []float64{1})
	vec := reg.CounterVec("test_v_total", "", "k")

	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.5)
				vec.With("a").Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != workers*per {
		t.Errorf("gauge = %g, want %d", g.Value(), workers*per)
	}
	if h.Count() != workers*per || h.Sum() != workers*per/2 {
		t.Errorf("histogram count=%d sum=%g, want %d and %d", h.Count(), h.Sum(), workers*per, workers*per/2)
	}
	if vec.With("a").Value() != workers*per {
		t.Errorf("vec = %d, want %d", vec.With("a").Value(), workers*per)
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }
