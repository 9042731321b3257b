package fleet

import (
	"homesight/internal/obs"
)

// FleetMetrics is the fleet tier's bundle of registry-backed
// instruments, shared by the router and every shard wired to the same
// registry (`homesight collector` registers one bundle on the debug server's
// registry). It mirrors RouterStats, and ShardStats reads its reports
// and frames from the per-shard series: the snapshot structs stay the
// programmatic API, these are the live exported series.
//
// Per-shard stores run with private store metrics (several stores on
// one registry would fight over the shared gauges), so the fleet
// families carry the per-shard dimension instead.
type FleetMetrics struct {
	// ShardReports counts reports appended per shard
	// (homesight_fleet_shard_reports_total{shard}): the per-shard
	// reports/s rate and the balance view of the hash ring.
	ShardReports *obs.CounterVec
	// ShardBatches counts frames decoded per shard
	// (homesight_fleet_shard_batches_total{shard}).
	ShardBatches *obs.CounterVec
	// Rebalances counts shard-loss rebalance events
	// (homesight_fleet_rebalances_total): each is one ring shrink plus
	// catch-up replay.
	Rebalances *obs.Counter
	// ReplayedReports counts reports re-sent through the ring by
	// catch-up replay (homesight_fleet_replayed_reports_total).
	ReplayedReports *obs.Counter
	// ReplayLag is the duration of the last catch-up replay in seconds
	// (homesight_fleet_replay_lag_seconds): how long the dead shard's
	// history took to reach its new owners.
	ReplayLag *obs.Gauge
	// IngestSeconds is the shard-side append duration per frame in
	// seconds (homesight_fleet_ingest_seconds).
	IngestSeconds *obs.Histogram
}

// NewFleetMetrics registers (or re-binds, idempotently) the fleet
// family on reg.
func NewFleetMetrics(reg *obs.Registry) *FleetMetrics {
	return &FleetMetrics{
		ShardReports: reg.CounterVec("homesight_fleet_shard_reports_total",
			"Reports appended to each shard's partition.", "shard"),
		ShardBatches: reg.CounterVec("homesight_fleet_shard_batches_total",
			"Batch frames decoded by each shard.", "shard"),
		Rebalances: reg.Counter("homesight_fleet_rebalances_total",
			"Shard-loss rebalance events: ring shrink plus catch-up replay."),
		ReplayedReports: reg.Counter("homesight_fleet_replayed_reports_total",
			"Reports replayed from a dead shard's partition to its new owners."),
		ReplayLag: reg.Gauge("homesight_fleet_replay_lag_seconds",
			"Duration of the last catch-up replay, seconds."),
		IngestSeconds: reg.Histogram("homesight_fleet_ingest_seconds",
			"Shard-side append duration per batch frame, seconds.", nil),
	}
}
