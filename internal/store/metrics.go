package store

import "homesight/internal/obs"

// fsyncBuckets span the WAL fsync latency range that matters
// operationally: tens of microseconds (page cache + NVMe) up to the
// hundreds of milliseconds that signal a saturated or failing disk.
var fsyncBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1, 1, //homesight:ignore bare-alpha — histogram bucket bounds, not a significance level
}

// Metrics is the store's bundle of registry-backed instruments, the
// homesight_store_* families of OBSERVABILITY.md. Construct one per
// registry with NewMetrics and hand it to Config.Metrics; a nil
// Config.Metrics gets a private registry so the counting path is always
// on.
type Metrics struct {
	// Appends counts reports accepted by Append
	// (homesight_store_appends_total); Points counts the series points
	// written from them (homesight_store_points_total) and DupPoints the
	// points dropped by the per-series watermark — replayed or duplicate
	// samples (homesight_store_duplicate_points_total).
	Appends   *obs.Counter
	Points    *obs.Counter
	DupPoints *obs.Counter
	// Flushes counts memtable flushes (homesight_store_flushes_total).
	Flushes *obs.Counter
	// Segments and SegmentBytes describe the live segment set
	// (homesight_store_segments, homesight_store_segment_bytes).
	Segments     *obs.Gauge
	SegmentBytes *obs.Gauge
	// MemPoints tracks the active memtable's occupancy
	// (homesight_store_memtable_points).
	MemPoints *obs.Gauge
	// Compression is raw bytes (16 per point) over encoded block bytes
	// across all segments (homesight_store_compression_ratio).
	Compression *obs.Gauge
	// FsyncSeconds is the WAL fsync latency distribution
	// (homesight_store_wal_fsync_seconds).
	FsyncSeconds *obs.Histogram
	// WALTruncations counts torn tails cut off during recovery
	// (homesight_store_wal_truncations_total).
	WALTruncations *obs.Counter
	// BlockReads counts segment block decodes by kind ("raw" minute
	// blocks vs precomputed "rollup" blocks)
	// (homesight_store_block_reads_total). A well-behaved downsampled
	// query moves only the rollup series.
	BlockReads *obs.CounterVec
}

// NewMetrics registers (or re-binds, idempotently) the store families
// on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Appends: reg.Counter("homesight_store_appends_total",
			"Reports accepted by Store.Append."),
		Points: reg.Counter("homesight_store_points_total",
			"Series points written to the memtable."),
		DupPoints: reg.Counter("homesight_store_duplicate_points_total",
			"Points dropped by the per-series watermark (duplicates and replays)."),
		Flushes: reg.Counter("homesight_store_flushes_total",
			"Memtable flushes completed (one immutable segment each)."),
		Segments: reg.Gauge("homesight_store_segments",
			"Live segment files."),
		SegmentBytes: reg.Gauge("homesight_store_segment_bytes",
			"Total bytes of live segment files."),
		MemPoints: reg.Gauge("homesight_store_memtable_points",
			"Points in the active memtable (WAL-backed, not yet in a segment)."),
		Compression: reg.Gauge("homesight_store_compression_ratio",
			"Raw point bytes (16/point) over encoded block bytes across live segments."),
		FsyncSeconds: reg.Histogram("homesight_store_wal_fsync_seconds",
			"WAL fsync duration, seconds.", fsyncBuckets),
		WALTruncations: reg.Counter("homesight_store_wal_truncations_total",
			"Torn WAL tails truncated during crash recovery."),
		BlockReads: reg.CounterVec("homesight_store_block_reads_total",
			"Segment block decodes by kind (raw minute blocks vs precomputed rollup blocks).",
			"kind"),
	}
}
