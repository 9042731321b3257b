package fleet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"homesight/internal/gateway"
	"homesight/internal/livestats"
	"homesight/internal/obs"
	"homesight/internal/store"
	"homesight/internal/telemetry"
)

// DefaultReadTimeout closes a shard connection that stays silent this
// long. Gateways report once a minute, so a few missed minutes of
// silence close the connection and let the reporter's reconnect path
// take over.
const DefaultReadTimeout = 5 * time.Minute

// ShardStats is a point-in-time snapshot of one shard's ingest
// accounting. Each field reads the shard's own child of the
// FleetMetrics series of the same name.
type ShardStats struct {
	// ReportsAppended counts reports accepted into the partition.
	ReportsAppended int64 `json:"reports_appended"`
	// AppendErrors counts reports the store refused.
	AppendErrors int64 `json:"append_errors"`
	// FramesDecoded counts frames that passed CRC and decode.
	FramesDecoded int64 `json:"frames_decoded"`
	// FramesRejected counts corrupt frames; each closes its connection
	// (binary streams cannot resync; the sender replays its unacked
	// window on reconnect).
	FramesRejected int64 `json:"frames_rejected"`
	// ConnsOpened counts every connection ever accepted.
	ConnsOpened int64 `json:"conns_opened"`
}

// Shard is one member of the fleet ingest tier: a TCP server that
// decodes batch frames into its own homestore partition. Reports from
// different gateways interleave freely; per-connection frame order is
// preserved, and the partition's WAL watermarks drop replayed
// duplicates, giving the tier its exactly-once-in-partition semantics.
type Shard struct {
	name, dir   string
	readTimeout time.Duration
	// now is the clock behind read deadlines and ingest latency.
	now     func() time.Time
	store   *store.Store
	tracker *livestats.Tracker // nil when live analytics are off
	ln      net.Listener
	// The shard's children of the FleetMetrics families, bound once, and
	// the fleet-wide ingest histogram.
	reports, batches, appendErrors, framesRejected, connsOpened *obs.Counter
	ingestSeconds                                               *obs.Histogram

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]bool
	wg     sync.WaitGroup
}

// startShard opens (or recovers) shard i's partition and starts
// serving batch frames on cfg.Addr; cfg carries Start's defaults, and
// ctx bounds the live-state rebuild.
func startShard(ctx context.Context, cfg Config, i int) (*Shard, error) {
	name, dir := ShardName(i), PartitionDir(cfg.Dir, i)
	st, err := store.Open(store.Config{
		Dir:   dir,
		Start: cfg.Start,
		Step:  cfg.Step,
		Sync:  cfg.Sync,
	})
	if err != nil {
		return nil, err
	}
	var tracker *livestats.Tracker
	if cfg.Live != nil {
		// The tracker's grid is the partition's: a reopened partition
		// keeps the anchor in its meta.json, whatever cfg.Start says now.
		lc := *cfg.Live
		lc.Start, lc.Step = st.Start(), st.Step()
		tracker = livestats.NewTracker(lc)
		// Warm the tracker from the partition's recovered history: its
		// per-device watermarks end up mirroring the store's, so live
		// redelivery after the rebuild dedups exactly as the WAL does.
		if _, err := tracker.Rebuild(ctx, st); err != nil {
			_ = st.Close() // the store holds nothing new
			return nil, fmt.Errorf("fleet: rebuilding live state for %s: %w", name, err)
		}
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		_ = st.Close() // the store holds nothing new
		return nil, err
	}
	s := &Shard{
		name:        name,
		dir:         dir,
		readTimeout: cfg.ReadTimeout,
		now:         time.Now,
		store:       st,
		tracker:     tracker,
		ln:          ln,
		conns:       make(map[net.Conn]bool),
		// Bind the per-shard series now so they render at 0 from the
		// first scrape, before any report arrives.
		reports:        cfg.Metrics.ShardReports.With(name),
		batches:        cfg.Metrics.ShardBatches.With(name),
		appendErrors:   cfg.Metrics.AppendErrors.With(name),
		framesRejected: cfg.Metrics.FramesRejected.With(name),
		connsOpened:    cfg.Metrics.ConnsOpened.With(name),
		ingestSeconds:  cfg.Metrics.IngestSeconds,
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Name returns the shard's ring identity.
func (s *Shard) Name() string { return s.name }

// Addr returns the listening address.
func (s *Shard) Addr() string { return s.ln.Addr().String() }

// Dir returns the partition directory.
func (s *Shard) Dir() string { return s.dir }

// Stats returns a snapshot of the shard's ingest accounting.
func (s *Shard) Stats() ShardStats {
	return ShardStats{
		ReportsAppended: s.reports.Value(),
		AppendErrors:    s.appendErrors.Value(),
		FramesDecoded:   s.batches.Value(),
		FramesRejected:  s.framesRejected.Value(),
		ConnsOpened:     s.connsOpened.Value(),
	}
}

// StoreStats returns the underlying partition's store counters (points,
// watermark dups, segments) — the partition-level half of the fleet's
// exact accounting.
func (s *Shard) StoreStats() store.Stats { return s.store.Stats() }

func (s *Shard) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		closed := s.closed
		if !closed {
			s.conns[conn] = true
		}
		s.mu.Unlock()
		if closed {
			_ = conn.Close()
			return
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn decodes one connection's frame stream into the partition,
// acknowledging each appended frame with one BatchAck byte. There is no
// resync path: a corrupt frame closes the connection and the sender's
// reconnect replays its unacked window (the watermark dedups what
// already landed).
func (s *Shard) serveConn(conn net.Conn) {
	defer s.wg.Done()
	s.connsOpened.Inc()
	defer func() {
		_ = conn.Close() // the protocol has per-frame acks but no shutdown handshake
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	dec := telemetry.NewFrameDecoder()
	ack := [1]byte{telemetry.BatchAck}
	for {
		if s.readTimeout > 0 {
			_ = conn.SetReadDeadline(s.now().Add(s.readTimeout))
		}
		reps, err := dec.Next(br, telemetry.MaxBatchBytes)
		if err != nil {
			// Corrupt frames are counted; EOF/deadline/reset are the
			// reporter's reconnect path, not an accounting event.
			if errors.Is(err, telemetry.ErrFrameCorrupt) {
				s.framesRejected.Inc()
			}
			return
		}
		// Acknowledge only after the whole frame is appended: the ack is
		// the reporter's license to retire the frame from its unacked
		// window, so ack ⇒ appended (and with SyncAlways, ⇒ durable). A
		// store that refused the frame gets no ack: the connection closes,
		// the sender keeps the frame and its shard-loss path takes over.
		if err := s.ingestBatch(reps); err != nil {
			return
		}
		if _, err := conn.Write(ack[:]); err != nil {
			return
		}
	}
}

// ingestBatch appends one frame's reports and advances the live state.
// A report the store rejects for its content (no gateway id) is counted
// and skipped — the frame is still acked, so a poison report cannot wedge
// its sender. Any other AppendBatch error means the store itself is
// failing (closed, a sticky flush error, a WAL write error): the frame is
// dropped, every one of its reports counted as refused, and the error
// returned; the frame must not be acked.
func (s *Shard) ingestBatch(reps []gateway.Report) error {
	start := s.now()
	skipped, err := s.store.AppendBatch(reps)
	if err != nil {
		s.appendErrors.Add(int64(len(reps)))
	} else {
		s.appendErrors.Add(int64(skipped))
		// Only appended reports advance the live state, so the tracker
		// never gets ahead of the partition it rebuilds from.
		for i := range reps {
			if s.tracker != nil && reps[i].GatewayID != "" {
				s.tracker.OnReport(reps[i])
			}
		}
		s.reports.Add(int64(len(reps) - skipped))
	}
	s.batches.Inc()
	s.ingestSeconds.Observe(s.now().Sub(start).Seconds())
	return err
}

// Watermarks exposes the partition's per-series high-water timestamps —
// the cursors that make handoff replay idempotent.
//
//homesight:ignore unreachable — (c) telemetry's TestFaultReconnectOvertake compares the partition's cursors through it
func (s *Shard) Watermarks() map[store.Key]int64 { return s.store.Watermarks() }

// open reports whether the shard is still accepting connections.
func (s *Shard) open() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed
}

// Drain stops accepting new connections, waits for the existing
// handlers to read their streams to EOF, then closes the partition
// cleanly: frames still buffered in the sockets are fully appended
// first. Drain blocks until every client has disconnected, so close the
// routers before draining the fleet.
func (s *Shard) Drain() error {
	if !s.shutdown(false) {
		return telemetry.ErrClosed
	}
	return s.store.Close()
}

// Close stops accepting, tears down live connections (frames in flight
// on them are lost — the sender's tail covers redelivery) and closes
// the partition with a final WAL sync.
func (s *Shard) Close() error {
	if !s.shutdown(true) {
		return telemetry.ErrClosed
	}
	return s.store.Close()
}

// Kill simulates the shard process dying: connections drop mid-stream
// and the partition store crashes (unsynced WAL writes are abandoned,
// per store.Crash). The partition directory remains on disk for
// catch-up replay, exactly as a real dead shard's volume would.
func (s *Shard) Kill() {
	if !s.shutdown(true) {
		return
	}
	s.store.Crash()
}

// shutdown closes the listener — and, when force is set, the live
// connections — exactly once, then waits for the handlers; it reports
// whether this call was the one that performed it.
func (s *Shard) shutdown(force bool) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	s.closed = true
	var conns []net.Conn
	if force {
		conns = make([]net.Conn, 0, len(s.conns))
		for conn := range s.conns {
			conns = append(conns, conn)
		}
	}
	s.mu.Unlock()
	_ = s.ln.Close() // the accept loop exits on this close
	for _, conn := range conns {
		_ = conn.Close() // forced shutdown races the serve loop's own close
	}
	s.wg.Wait()
	return true
}
