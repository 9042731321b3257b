package fleet

import (
	"homesight/internal/obs"
)

// FleetMetrics is the fleet tier's bundle of registry-backed
// instruments and the only place its events are counted: Router.Stats
// and Shard.Stats are views of these series, not counters of their own.
// One bundle serves one router and any number of shards, each shard
// binding its own `shard`-labelled children; two routers on one bundle
// would add into one set of router counters (`homesight collector`
// registers one bundle on the debug server's registry and runs one
// router over it).
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
	// AppendErrors counts reports each shard's store refused
	// (homesight_fleet_shard_append_errors_total{shard}).
	AppendErrors *obs.CounterVec
	// FramesRejected counts corrupt frames per shard
	// (homesight_fleet_shard_frames_rejected_total{shard}).
	FramesRejected *obs.CounterVec
	// ConnsOpened counts connections accepted per shard
	// (homesight_fleet_shard_conns_opened_total{shard}).
	ConnsOpened *obs.CounterVec
	// ReportsRouted counts reports the router bucketed onto the ring,
	// replayed and reassigned ones included
	// (homesight_fleet_routed_reports_total).
	ReportsRouted *obs.Counter
	// BatchesFlushed counts batch frames the router delivered
	// (homesight_fleet_batches_flushed_total).
	BatchesFlushed *obs.Counter
	// Rebalances counts shard-loss rebalance events
	// (homesight_fleet_rebalances_total): each is one ring shrink plus
	// catch-up replay.
	Rebalances *obs.Counter
	// ReplayedReports counts reports re-sent through the ring by
	// catch-up replay (homesight_fleet_replayed_reports_total).
	ReplayedReports *obs.Counter
	// ReassignedReports counts a dead shard's in-flight reports
	// re-routed to the survivors
	// (homesight_fleet_reassigned_reports_total).
	ReassignedReports *obs.Counter
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
		AppendErrors: reg.CounterVec("homesight_fleet_shard_append_errors_total",
			"Reports each shard's store refused.", "shard"),
		FramesRejected: reg.CounterVec("homesight_fleet_shard_frames_rejected_total",
			"Corrupt batch frames each shard rejected, closing their connection.", "shard"),
		ConnsOpened: reg.CounterVec("homesight_fleet_shard_conns_opened_total",
			"Connections each shard accepted.", "shard"),
		ReportsRouted: reg.Counter("homesight_fleet_routed_reports_total",
			"Reports the router bucketed onto the ring, replayed and reassigned ones included."),
		BatchesFlushed: reg.Counter("homesight_fleet_batches_flushed_total",
			"Batch frames the router delivered to a shard."),
		Rebalances: reg.Counter("homesight_fleet_rebalances_total",
			"Shard-loss rebalance events: ring shrink plus catch-up replay."),
		ReplayedReports: reg.Counter("homesight_fleet_replayed_reports_total",
			"Reports replayed from a dead shard's partition to its new owners."),
		ReassignedReports: reg.Counter("homesight_fleet_reassigned_reports_total",
			"In-flight reports of a dead shard re-routed to the survivors."),
		ReplayLag: reg.Gauge("homesight_fleet_replay_lag_seconds",
			"Duration of the last catch-up replay, seconds."),
		IngestSeconds: reg.Histogram("homesight_fleet_ingest_seconds",
			"Shard-side append duration per batch frame, seconds.", nil),
	}
}
