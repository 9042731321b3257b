package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"homesight/internal/gateway"
	"homesight/internal/obs"
)

// Collector robustness defaults. Gateways report once a minute, so a few
// missed minutes of silence close the connection and let the reporter's
// reconnect path take over.
const (
	// DefaultReadTimeout closes a connection that stays silent this long.
	DefaultReadTimeout = 5 * time.Minute
	// DefaultQueueSize bounds the ingest queue between connection readers
	// and the ingest worker.
	DefaultQueueSize = 256
	// DefaultMaxLineBytes bounds one wire line; anything longer is
	// truncated and dropped as malformed.
	DefaultMaxLineBytes = 1 << 20
	// DefaultMaxConnDrops is the per-connection malformed-line budget; a
	// connection that exceeds it is feeding garbage, not reports, and is
	// closed.
	DefaultMaxConnDrops = 1000
)

// CollectorConfig tunes the robustness envelope of a Collector. The zero
// value selects the defaults above.
type CollectorConfig struct {
	// ReadTimeout is the per-connection read deadline, refreshed before
	// every read. 0 → DefaultReadTimeout; negative → no deadline.
	ReadTimeout time.Duration
	// QueueSize bounds the ingest queue. A full queue blocks the
	// connection readers, which stops draining the sockets and pushes
	// backpressure to the reporters through TCP flow control.
	// 0 → DefaultQueueSize.
	QueueSize int
	// MaxLineBytes bounds a single wire line. 0 → DefaultMaxLineBytes.
	MaxLineBytes int
	// MaxConnDrops is the malformed-line budget per connection.
	// 0 → DefaultMaxConnDrops.
	MaxConnDrops int
	// Metrics receives the collector's registry-backed instruments
	// (queue depth, drops by reason, resyncs, ingest latency). nil → a
	// private registry, so instrumentation is always on but exported
	// nowhere. Collectors sharing one IngestMetrics (same registry)
	// accumulate into shared series, Prometheus-style.
	Metrics *IngestMetrics
	// Now is the clock behind read deadlines and latency measurements;
	// nil → time.Now. Injectable so harnesses can drive the collector on
	// a fake clock.
	Now func() time.Time
}

func (cfg CollectorConfig) withDefaults() CollectorConfig {
	if cfg.ReadTimeout == 0 {
		cfg.ReadTimeout = DefaultReadTimeout
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = DefaultQueueSize
	}
	if cfg.MaxLineBytes <= 0 {
		cfg.MaxLineBytes = DefaultMaxLineBytes
	}
	if cfg.MaxConnDrops <= 0 {
		cfg.MaxConnDrops = DefaultMaxConnDrops
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewIngestMetrics(obs.NewRegistry())
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return cfg
}

// IngestStats is a point-in-time snapshot of a collector's ingest
// accounting: every report, dropped line and shed error is counted
// exactly once, so the counters reconcile against what reporters sent.
//
//homesight:stats
type IngestStats struct {
	// ReportsIngested counts reports accepted into the store.
	ReportsIngested int64 `json:"reports_ingested"`
	// LinesDropped counts malformed (or oversized) wire lines skipped by
	// the resync path.
	LinesDropped int64 `json:"lines_dropped"`
	// IngestErrors counts well-formed reports the store rejected (late
	// duplicates, pre-anchor timestamps).
	IngestErrors int64 `json:"ingest_errors"`
	// ErrorsShed counts errors dropped because the Errs channel was full.
	ErrorsShed int64 `json:"errors_shed"`
	// ActiveConns is the number of currently served connections.
	ActiveConns int64 `json:"active_conns"`
	// ConnsOpened counts every connection ever accepted.
	ConnsOpened int64 `json:"conns_opened"`
}

// ingestCounters is the race-safe mutable backing of IngestStats.
type ingestCounters struct {
	reportsIngested atomic.Int64
	linesDropped    atomic.Int64
	ingestErrors    atomic.Int64
	errorsShed      atomic.Int64
	activeConns     atomic.Int64
	connsOpened     atomic.Int64
}

func (c *ingestCounters) snapshot() IngestStats {
	return IngestStats{
		ReportsIngested: c.reportsIngested.Load(),
		LinesDropped:    c.linesDropped.Load(),
		IngestErrors:    c.ingestErrors.Load(),
		ErrorsShed:      c.errorsShed.Load(),
		ActiveConns:     c.activeConns.Load(),
		ConnsOpened:     c.connsOpened.Load(),
	}
}

// Collector is the central TCP report sink. Connection readers frame and
// parse wire lines; a single ingest worker drains the bounded queue into
// the store, preserving per-connection report order, and connections
// take turns per gateway in accept order (see connTurn), so a gateway's
// reports stay in order across a reconnect too.
type Collector struct {
	store *Store
	ln    net.Listener
	cfg   CollectorConfig

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]*connTurn
	wg     sync.WaitGroup

	queue      chan gateway.Report
	ingestDone chan struct{}
	counters   ingestCounters

	// Errs receives per-line and per-report ingest errors (dropped and
	// counted in IngestStats.ErrorsShed when full).
	Errs chan error
}

// connTurn is one connection's place in the collector's one ordering
// rule: a gateway's reports are queued connection by connection, in
// accept order. A reporter that reconnects replays its resend tail on
// the new connection while the old one's reader may still hold hundreds
// of buffered lines; both feed the shared queue, and without the rule
// the replay overtakes and every overtaken original is rejected as
// late.
type connTurn struct {
	seq uint64 // accept order
	// identified is closed when the connection is about to queue its
	// first report, done after it has queued its last.
	identified, done chan struct{}
	// gateways the connection has queued reports for; nil until
	// identified. Written by the connection's own goroutine under
	// Collector.mu, read by the others under it.
	gateways map[string]bool
}

// NewCollector starts listening on addr (e.g. "127.0.0.1:0") with the
// default robustness configuration.
func NewCollector(addr string, store *Store) (*Collector, error) {
	return NewCollectorConfig(addr, store, CollectorConfig{})
}

// NewCollectorConfig starts listening on addr and serving connections in
// the background with an explicit robustness configuration.
func NewCollectorConfig(addr string, store *Store, cfg CollectorConfig) (*Collector, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	c := &Collector{
		store:      store,
		ln:         ln,
		cfg:        cfg,
		conns:      make(map[net.Conn]*connTurn),
		queue:      make(chan gateway.Report, cfg.QueueSize),
		ingestDone: make(chan struct{}),
		Errs:       make(chan error, 16),
	}
	go c.ingestLoop()
	c.wg.Add(1)
	go c.acceptLoop()
	return c, nil
}

// Addr returns the listening address.
func (c *Collector) Addr() string { return c.ln.Addr().String() }

// Stats returns a snapshot of the collector's ingest accounting.
func (c *Collector) Stats() IngestStats { return c.counters.snapshot() }

func (c *Collector) acceptLoop() {
	defer c.wg.Done()
	for seq := uint64(0); ; seq++ {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		// The turn is numbered and registered here, not in serveConn:
		// goroutines start in any order, accepts do not.
		turn := &connTurn{seq: seq, identified: make(chan struct{}), done: make(chan struct{})}
		c.mu.Lock()
		closed := c.closed
		if !closed {
			c.conns[conn] = turn
		}
		c.mu.Unlock()
		if closed {
			_ = conn.Close() //homesight:ignore unchecked-close — collector is shutting down; conn is unwanted
			return
		}
		c.wg.Add(1)
		go c.serveConn(conn, turn)
	}
}

// turnWait is the longest awaitTurn holds a report back: ReadTimeout,
// or DefaultReadTimeout when reads have no deadline — a half-open
// earlier connection then never finishes, and the wait must.
func (cfg CollectorConfig) turnWait() time.Duration {
	if cfg.ReadTimeout > 0 {
		return cfg.ReadTimeout
	}
	return DefaultReadTimeout
}

// awaitTurn blocks until turn may queue its first report for gateway:
// no earlier-accepted, still-open connection has queued reports for it
// (such a connection is waited for until it is done), and none has yet
// to say what it carries (it has queued nothing; it is waited for until
// it identifies itself or is done). Waiting only on earlier connections
// cannot deadlock, and Close ends it: it closes every socket, so
// connections finish in accept order. A connection whose peer went
// silent without closing holds its successors up until its own read
// gives up, after ReadTimeout; the wait is bounded by turnWait whether
// or not reads have a deadline, and the report is queued regardless
// once it passes.
func (c *Collector) awaitTurn(turn *connTurn, gateway string) {
	t := time.NewTimer(c.cfg.turnWait())
	defer t.Stop()
	for expired := false; ; {
		var identified, done <-chan struct{}
		c.mu.Lock()
		for _, o := range c.conns {
			if o.seq >= turn.seq {
				continue
			}
			if o.gateways == nil {
				identified, done = o.identified, o.done
			} else if o.gateways[gateway] {
				done = o.done
			}
			if done != nil {
				break
			}
		}
		if done == nil || expired {
			if turn.gateways == nil {
				turn.gateways = make(map[string]bool)
				close(turn.identified)
			}
			turn.gateways[gateway] = true
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
		select {
		case <-identified:
		case <-done:
		case <-t.C:
			expired = true
		}
	}
}

// serveConn frames one connection's stream into lines and parses each
// independently: a malformed line is counted and skipped (resync at the
// next newline) instead of killing the connection, up to the
// per-connection MaxConnDrops budget.
func (c *Collector) serveConn(conn net.Conn, turn *connTurn) {
	defer c.wg.Done()
	c.counters.connsOpened.Add(1)
	c.counters.activeConns.Add(1)
	c.cfg.Metrics.Conns.Inc()
	c.cfg.Metrics.ActiveConns.Inc()
	defer func() {
		_ = conn.Close() //homesight:ignore unchecked-close — read side; the protocol carries no shutdown ack
		c.counters.activeConns.Add(-1)
		c.cfg.Metrics.ActiveConns.Dec()
		c.mu.Lock()
		delete(c.conns, conn)
		c.mu.Unlock()
		close(turn.done)
	}()
	br := bufio.NewReaderSize(conn, 32<<10)
	drops := 0 // per-connection malformed-line counter
	for {
		if c.cfg.ReadTimeout > 0 {
			_ = conn.SetReadDeadline(c.cfg.Now().Add(c.cfg.ReadTimeout))
		}
		line, err := readLine(br, c.cfg.MaxLineBytes)
		if len(line) > 0 && !c.ingestLine(line, turn) {
			c.cfg.Metrics.Resyncs.Inc()
			drops++
			if drops > c.cfg.MaxConnDrops {
				c.shed(fmt.Errorf("telemetry: closing %v after %d malformed lines", conn.RemoteAddr(), drops))
				return
			}
		}
		if err != nil {
			return // EOF, deadline, or reset: the reporter reconnects
		}
	}
}

// readLine reads the next newline-terminated line (newline included, as
// delivered). Lines longer than max are truncated to max bytes — the
// truncation breaks the JSON, so the caller counts them as dropped —
// while the remainder of the oversized line is consumed without
// buffering it.
func readLine(br *bufio.Reader, max int) ([]byte, error) {
	var line []byte
	for {
		chunk, err := br.ReadSlice('\n')
		if keep := max - len(line); keep > 0 {
			if len(chunk) < keep {
				keep = len(chunk)
			}
			line = append(line, chunk[:keep]...)
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		return line, err
	}
}

// ingestLine parses one wire line and queues the report, reporting
// whether the line was well-formed. The first report of each gateway on
// a connection waits its turn (awaitTurn). The queue send blocks when
// full: that is the backpressure path, propagated to the reporter
// through the unread socket.
func (c *Collector) ingestLine(line []byte, turn *connTurn) bool {
	line = bytes.TrimSpace(line)
	if len(line) == 0 {
		return true // blank line: harmless keepalive
	}
	var rep gateway.Report
	if err := json.Unmarshal(line, &rep); err != nil {
		c.counters.linesDropped.Add(1)
		c.cfg.Metrics.DroppedMalformed.Inc()
		c.shed(fmt.Errorf("telemetry: dropped malformed line (%d bytes): %w", len(line), err))
		return false
	}
	// Only this goroutine writes turn.gateways (under c.mu, for the
	// other connections' awaitTurn), so it reads it bare.
	if !turn.gateways[rep.GatewayID] {
		c.awaitTurn(turn, rep.GatewayID)
	}
	c.queue <- rep
	c.cfg.Metrics.QueueDepth.Set(float64(len(c.queue)))
	return true
}

// ingestLoop is the single consumer of the bounded queue. One worker
// keeps the queue's order — per connection by construction, per gateway
// across connections by awaitTurn — intact; the store's own lock is the
// serialization point either way.
func (c *Collector) ingestLoop() {
	defer close(c.ingestDone)
	for rep := range c.queue {
		c.cfg.Metrics.QueueDepth.Set(float64(len(c.queue)))
		t0 := c.cfg.Now()
		err := c.store.Ingest(rep)
		c.cfg.Metrics.Latency.Observe(c.cfg.Now().Sub(t0).Seconds())
		if err != nil {
			c.counters.ingestErrors.Add(1)
			c.cfg.Metrics.DroppedRejected.Inc()
			c.shed(err)
			continue
		}
		c.counters.reportsIngested.Add(1)
		c.cfg.Metrics.Reports.Inc()
	}
}

// shed offers an error to Errs, counting it as shed when the channel is
// full: the error path must never block ingestion.
func (c *Collector) shed(err error) {
	select {
	case c.Errs <- err:
	default:
		c.counters.errorsShed.Add(1)
		c.cfg.Metrics.DroppedShed.Inc()
	}
}

// Drain stops accepting new connections and waits for the existing
// handlers to read their streams to EOF, then for the ingest queue to
// empty. Unlike Close it does not tear down live connections, so reports
// still buffered in the sockets are fully ingested; after Drain returns
// the store's recorders are safe to read. Drain blocks until every
// client has disconnected — callers must ensure the reporters have
// closed (or will close) their ends.
func (c *Collector) Drain() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.closed = true
	c.mu.Unlock()
	err := c.ln.Close()
	c.wg.Wait()
	close(c.queue)
	<-c.ingestDone
	return err
}

// Close stops accepting, closes all connections, waits for handlers and
// drains the ingest queue.
func (c *Collector) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.closed = true
	conns := make([]net.Conn, 0, len(c.conns))
	for conn := range c.conns {
		conns = append(conns, conn)
	}
	c.mu.Unlock()
	for _, conn := range conns {
		_ = conn.Close() //homesight:ignore unchecked-close — forced shutdown; listener close error wins
	}
	err := c.ln.Close()
	c.wg.Wait()
	close(c.queue)
	<-c.ingestDone
	return err
}
