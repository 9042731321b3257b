// Run metrics for the parallel experiment engine: the structured per-run
// report (wall time, per-experiment durations, goroutine high-water
// mark, cache snapshots) that `homesight experiments` emits via the -metrics
// flag. The live counters behind the cache snapshots are registry-backed
// obs instruments owned by the experiments Env; this package keeps only
// the snapshot shapes so the JSON report stays a plain value. The report
// deliberately lives next to the collection pipeline: both describe
// "what did this deployment cost", one on the wire, one in the process.
package telemetry

import (
	"encoding/json"
	"io"
)

// CacheSnapshot is a point-in-time view of one cache's counters. A hit
// is a lookup served from a completed entry; a lookup that blocked on
// another caller's in-flight build is a build wait, counted separately
// with its blocked time — folding waits into hits is what let the old
// hit rate overstate cache warmth while the first builds serialized the
// whole parallel suite.
//
//homesight:stats
type CacheSnapshot struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// BuildWaits counts lookups that blocked on an in-flight build;
	// BuildWaitSeconds is their total blocked time.
	BuildWaits       int64   `json:"build_waits"`
	BuildWaitSeconds float64 `json:"build_wait_seconds"`
}

// Lookups is the total number of lookups observed.
func (s CacheSnapshot) Lookups() int64 { return s.Hits + s.Misses + s.BuildWaits }

// ExperimentMetrics is the per-experiment slice of a run report.
type ExperimentMetrics struct {
	ID      string  `json:"id"`
	Seconds float64 `json:"seconds"`
	Err     string  `json:"err,omitempty"`
}

// RunMetrics is the structured report of one engine run. Timings live
// here rather than in the experiment output so that stdout stays
// byte-identical across parallelism levels.
type RunMetrics struct {
	Parallelism        int                      `json:"parallelism"`
	WallSeconds        float64                  `json:"wall_seconds"`
	GoroutineHighWater int                      `json:"goroutine_high_water"`
	Experiments        []ExperimentMetrics      `json:"experiments"`
	Caches             map[string]CacheSnapshot `json:"caches,omitempty"`
}

// CacheHitRate is the aggregate hit rate across every cache in the run
// (0 when no cache was consulted).
func (m RunMetrics) CacheHitRate() float64 {
	var hits, lookups int64
	for _, s := range m.Caches {
		hits += s.Hits
		lookups += s.Lookups()
	}
	if lookups == 0 {
		return 0
	}
	return float64(hits) / float64(lookups)
}

// WriteJSON writes the report as indented JSON. Go's encoder already
// emits map keys in sorted order, so the output is deterministic.
func (m RunMetrics) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
