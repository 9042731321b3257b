// Package obs is homesight's dependency-free observability core: atomic
// Counter and Gauge instruments, a fixed-bucket Histogram, and a Registry
// that renders the Prometheus text exposition format. A companion HTTP
// Server (see server.go) exposes the registry at /metrics next to
// /healthz and the net/http/pprof profiling endpoints, behind the
// binaries' -debug-addr flag; the obs/slogx subpackage logs through
// log/slog's text handler, so log events carry the same key=value fields
// the metrics use.
//
// Design constraints, in order:
//
//   - Standard library only, like the rest of the module.
//   - Hot-path instruments are lock-free (sync/atomic); the registry
//     mutex is touched only at registration and render time.
//   - Registration is idempotent: asking for an existing family by the
//     same name, type and label key returns the same instruments, so
//     several subsystems (or several collectors) can share one registry
//     the way Prometheus clients share the default registerer.
//     Re-registering a name with a different type or label key panics —
//     that is a programming error, not an operational condition.
//   - Rendering is deterministic: families sort by name, series by label
//     value, so /metrics output is stable and golden-testable.
//
// Histogram buckets follow the same right-closed convention as
// internal/stats.Histogram: a value exactly equal to a bucket's upper
// bound counts in that bucket, which is also the Prometheus `le`
// (less-or-equal) contract.
//
// Failure semantics: instruments never block and never fail. The
// registry renders a point-in-time view — counters read between a hit
// and its paired accounting line may be transiently ahead of sibling
// counters, but every increment is eventually visible and nothing is
// ever lost.
package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. The zero value
// is ready to use; all methods are safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; n must be >= 0 (counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("obs: Counter.Add with negative delta")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 metric that can go up and down. The zero value is
// ready to use; all methods are safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (which may be negative) with a CAS loop.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }
