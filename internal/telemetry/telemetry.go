// Package telemetry implements the wire of the collection pipeline of
// Sec. 3: gateways report their cumulative per-device counters once a
// minute to a central server. Reports travel in CRC'd, length-prefixed
// batch frames (batch.go); the receiving end is a fleet shard
// (internal/fleet), which appends every frame to its homestore partition
// and acknowledges it with one byte. A single-node collector is a
// 1-shard fleet, so there is one ingest path.
//
// The pipeline is built to degrade gracefully under real-deployment
// faults rather than only surviving the happy path:
//
//   - the BatchReporter keeps every written-but-unacknowledged frame in a
//     bounded window, reconnects with exponential backoff + jitter and
//     replays the window; the shard's store drops replayed points at its
//     per-series watermark;
//   - a corrupt frame closes its connection at the shard and is counted
//     (fleet.ShardStats.FramesRejected); a silent connection is closed by
//     the shard's read deadline;
//   - the faultnet subpackage injects deterministic connection faults to
//     test both ends.
package telemetry

import "errors"

// ErrClosed is returned when using a closed reporter, router or shard.
var ErrClosed = errors.New("telemetry: closed")
