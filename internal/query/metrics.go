package query

import "homesight/internal/obs"

// metrics is the homesight_query_* instrument bundle (see the catalog
// in OBSERVABILITY.md).
type metrics struct {
	// requests counts finished requests by endpoint
	// (homesight_query_requests_total).
	requests *obs.CounterVec
	// latency is the request duration distribution by endpoint
	// (homesight_query_request_seconds).
	latency *obs.HistogramVec
	// bytes counts response body bytes by endpoint, errors and cache hits
	// included (homesight_query_response_bytes_total).
	bytes *obs.CounterVec
	// hits/misses count lookups of the response LRU and of the per-home
	// summary memo (homesight_query_cache_hits_total,
	// homesight_query_cache_misses_total).
	hits, misses *obs.Counter
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		requests: reg.CounterVec("homesight_query_requests_total",
			"Query API requests served, by endpoint.", "endpoint"),
		latency: reg.HistogramVec("homesight_query_request_seconds",
			"Query API request duration, seconds, by endpoint.", "endpoint", obs.DefBuckets),
		bytes: reg.CounterVec("homesight_query_response_bytes_total",
			"Query API response body bytes written, by endpoint.", "endpoint"),
		hits: reg.Counter("homesight_query_cache_hits_total",
			"Query response cache hits."),
		misses: reg.Counter("homesight_query_cache_misses_total",
			"Query response cache misses (including lookups with the cache disabled)."),
	}
}
