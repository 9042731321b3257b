package livestats

import "homesight/internal/obs"

// Metrics is the homesight_live_* instrument bundle (see the catalog
// in OBSERVABILITY.md) and the only place a Tracker counts its
// accounting: reports, stale rows, homes and devices are read from it.
// Trackers sharing one Metrics (a fleet's shards) add up into it.
type Metrics struct {
	// Reports counts reports consumed (homesight_live_reports_total).
	Reports *obs.Counter
	// Stale counts watermark-dropped device rows
	// (homesight_live_stale_rows_total).
	Stale *obs.Counter
	// Homes and Devices gauge the tracked population
	// (homesight_live_homes, homesight_live_devices). Both are raised as
	// each home or device is first seen, so trackers sharing one Metrics
	// (a fleet's shards) add up.
	Homes   *obs.Gauge
	Devices *obs.Gauge
	// UpdateSeconds is the per-report operator-update duration
	// (homesight_live_update_seconds); SnapshotSeconds the snapshot
	// assembly duration (homesight_live_snapshot_seconds).
	UpdateSeconds   *obs.Histogram
	SnapshotSeconds *obs.Histogram
}

// NewMetrics registers the livestats instruments on reg (nil → a
// private registry, so the counting path is always on).
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Metrics{
		Reports: reg.Counter("homesight_live_reports_total",
			"Reports consumed by the live analytics tracker."),
		Stale: reg.Counter("homesight_live_stale_rows_total",
			"Device rows dropped at the live tracker's watermark (duplicate, reordered or pre-campaign delivery)."),
		Homes: reg.Gauge("homesight_live_homes",
			"Homes currently tracked by the live analytics tier."),
		Devices: reg.Gauge("homesight_live_devices",
			"Devices currently tracked by the live analytics tier."),
		UpdateSeconds: reg.Histogram("homesight_live_update_seconds",
			"Per-report live operator update duration, seconds.", obs.DefBuckets),
		SnapshotSeconds: reg.Histogram("homesight_live_snapshot_seconds",
			"Live snapshot assembly duration, seconds.", obs.DefBuckets),
	}
}
