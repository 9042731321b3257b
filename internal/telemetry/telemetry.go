// Package telemetry implements the collection pipeline of Sec. 3: gateways
// report their cumulative per-device counters once a minute to a central
// server. The wire format is one JSON document per line over TCP; the
// collector feeds a thread-safe Store of per-gateway recorders, from which
// analysis code pulls reconstructed time series.
//
// The pipeline is built to degrade gracefully under real-deployment
// faults rather than only surviving the happy path:
//
//   - the Collector resyncs past malformed lines, bounds per-connection
//     garbage, enforces read deadlines, applies backpressure through a
//     bounded ingest queue and keeps a gateway's reports in order across
//     its reconnects (see Collector and IngestStats);
//   - the Reporter reconnects with exponential backoff + jitter and
//     replays a bounded resend buffer across broken pipes (see Reporter);
//   - the faultnet subpackage injects deterministic connection faults to
//     test both ends.
//
// Every loss path is observable twice over: programmatically through the
// IngestStats atomics, and as live Prometheus series through IngestMetrics
// (internal/obs), incremented at the same sites — queue depth, drops by
// reason, resyncs, connection counts and per-report ingest latency. The
// fault suite pins the two views to exact equality. See OBSERVABILITY.md
// for the metric catalog.
package telemetry

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"homesight/internal/gateway"
)

// ErrClosed is returned when using a closed collector or reporter.
var ErrClosed = errors.New("telemetry: closed")

// Store accumulates reports per gateway.
type Store struct {
	start time.Time
	step  time.Duration

	mu        sync.Mutex
	recorders map[string]*gateway.Recorder
	// onReport, if set, observes every ingested report (streaming stage).
	onReport func(gateway.Report)
}

// NewStore returns an empty store anchored at start with the given step.
func NewStore(start time.Time, step time.Duration) *Store {
	return &Store{start: start, step: step, recorders: make(map[string]*gateway.Recorder)}
}

// OnReport registers a callback invoked (synchronously, after ingestion)
// for every successfully ingested report. It is safe to call concurrently
// with Ingest; the new callback observes reports ingested after the call.
func (s *Store) OnReport(fn func(gateway.Report)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onReport = fn
}

// Ingest stores one report.
func (s *Store) Ingest(rep gateway.Report) error {
	if rep.GatewayID == "" {
		return fmt.Errorf("telemetry: report without gateway id")
	}
	s.mu.Lock()
	rec := s.recorders[rep.GatewayID]
	if rec == nil {
		rec = gateway.NewRecorder(s.start, s.step)
		s.recorders[rep.GatewayID] = rec
	}
	err := rec.Ingest(rep)
	fn := s.onReport
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if fn != nil {
		fn(rep)
	}
	return nil
}

// GatewayIDs returns the known gateways, sorted.
func (s *Store) GatewayIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.recorders))
	for id := range s.recorders {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Recorder returns the recorder for a gateway, or nil if unknown. The
// recorder is safe to read only after the collector has stopped, or from
// the OnReport callback.
func (s *Store) Recorder(gatewayID string) *gateway.Recorder {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recorders[gatewayID]
}
