package telemetry

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"homesight/internal/gateway"
)

// Reporter defaults: a broken pipe costs at most a few seconds of
// backoff, and every frame it may have swallowed is still in the window.
const (
	// DefaultDialAttempts bounds reconnect attempts per Send/Flush call.
	DefaultDialAttempts = 6
	// DefaultBaseBackoff is the first reconnect delay; it doubles per
	// attempt up to DefaultMaxBackoff, with jitter.
	DefaultBaseBackoff = 50 * time.Millisecond
	// DefaultMaxBackoff caps the reconnect delay.
	DefaultMaxBackoff = 2 * time.Second
	// DefaultBatchWindow is how many written-but-unacked frames a
	// BatchReporter keeps in flight before blocking for acknowledgements.
	// The window is both the pipeline depth (throughput) and the exact
	// bound on what a shard crash can leave undelivered (correctness): on
	// reconnect or rebalance every unacked frame is replayed, so nothing
	// a caller handed to a successful Send is ever silently dropped.
	DefaultBatchWindow = 4
)

// ReporterConfig tunes a BatchReporter's retry envelope. The zero value
// selects the defaults above and a plain TCP dial.
type ReporterConfig struct {
	// Dial opens the transport connection. nil → net.Dial("tcp", addr).
	// Tests inject faultnet wrappers here.
	Dial func() (net.Conn, error)
	// DialAttempts bounds connection attempts per Send/Flush call before
	// the call returns an error. 0 → DefaultDialAttempts.
	DialAttempts int
	// BaseBackoff and MaxBackoff shape the exponential reconnect backoff.
	// 0 → the defaults.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Window is the unacked-window depth in frames. 0 → DefaultBatchWindow.
	Window int
	// Seed seeds the backoff jitter. The default (0 → 1) is fixed so
	// tests are deterministic; deployments give each reporter its own seed
	// to decorrelate a reconnecting fleet.
	Seed int64
}

func (cfg ReporterConfig) withDefaults(addr string) ReporterConfig {
	if cfg.Dial == nil {
		cfg.Dial = func() (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if cfg.DialAttempts <= 0 {
		cfg.DialAttempts = DefaultDialAttempts
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = DefaultBaseBackoff
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = DefaultMaxBackoff
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultBatchWindow
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return cfg
}

// BatchReporter is the fleet router's per-shard client: it ships
// batches of reports as CRC'd frames (AppendBatchFrame) over one TCP
// connection, with exponential backoff with jitter and a bounded
// dial-attempt budget per call. The resend discipline is ack-driven: a
// written frame stays in the unacked window until the shard
// acknowledges it (one BatchAck byte per appended frame), the window is
// bounded (ReporterConfig.Window) so a slow shard backpressures the
// sender instead of hiding frames in socket buffers, and every unacked
// frame is replayed after a reconnect (the shard's store dedups replays
// by watermark). A failed Send leaves the batch with the caller.
type BatchReporter struct {
	addr string
	cfg  ReporterConfig
	rng  *rand.Rand

	mu      sync.Mutex
	conn    net.Conn
	bw      *bufio.Writer
	br      *bufio.Reader
	window  [][]gateway.Report // written but unacked, oldest first
	scratch []byte             // frame encode buffer, reused under mu
	closed  bool
}

// DialBatch connects a batch reporter to a fleet shard address. The
// first dial is eager and not retried, so configuration errors (bad
// address, no listener) surface immediately.
func DialBatch(addr string, cfg ReporterConfig) (*BatchReporter, error) {
	cfg = cfg.withDefaults(addr)
	b := &BatchReporter{addr: addr, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	conn, err := cfg.Dial()
	if err != nil {
		return nil, err
	}
	b.attach(conn)
	return b, nil
}

// attach installs conn as the live connection. Callers hold mu (or own
// b exclusively, as in DialBatch).
func (b *BatchReporter) attach(conn net.Conn) {
	b.conn = conn
	b.bw = bufio.NewWriterSize(conn, 64<<10)
	b.br = bufio.NewReaderSize(conn, 64)
}

// Send delivers one batch of reports as a single frame, retrying over
// reconnects within the dial-attempt budget. On success the frame has
// been flushed to the socket and joined the unacked window — it cannot
// be lost short of the shard dying, in which case DrainTail hands it
// back for re-routing. On error the batch was NOT delivered and stays
// with the caller. Empty batches are a no-op.
func (b *BatchReporter) Send(ctx context.Context, reps []gateway.Report) error {
	if len(reps) == 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	// mu held across delivery: one in-flight frame serializes the wire
	// protocol; concurrent Sends queue behind it.
	return b.deliver(ctx, reps)
}

// Flush blocks until every written frame has been acknowledged,
// reconnecting (and replaying the unacked window) within the
// dial-attempt budget. A nil return means every report ever accepted by
// Send has been appended by the shard — the fleet router's end-of-
// campaign barrier.
func (b *BatchReporter) Flush(ctx context.Context) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	attempt := 0
	for len(b.window) > 0 {
		// mu held across the ack drain: Sends must not interleave with the barrier.
		if err := b.ensureConn(ctx, &attempt); err != nil {
			return fmt.Errorf("telemetry: flush with %d unacked batches: %w", len(b.window), err)
		}
		if err := b.readAck(); err != nil {
			b.teardown() // the barrier must not release the window mid-drain
		}
	}
	return nil
}

// deliver writes one batch, waiting for window space first and
// reconnecting with backoff on any failure. Called with mu held.
func (b *BatchReporter) deliver(ctx context.Context, reps []gateway.Report) error {
	attempt := 0
	for {
		if err := b.ensureConn(ctx, &attempt); err != nil {
			return fmt.Errorf("telemetry: batch of %d reports undelivered: %w", len(reps), err)
		}
		// Window flow control: block for the oldest ack before writing
		// past the unacked bound. This is what keeps "accepted by Send"
		// recoverable — a slower shard backpressures us here instead of
		// accumulating unacked frames in its socket buffer.
		if len(b.window) >= b.cfg.Window {
			if err := b.readAck(); err != nil {
				b.teardown()
			}
			continue
		}
		if err := b.writeBatch(reps); err != nil {
			b.teardown()
			continue
		}
		// The batch slice is retained, not copied: callers hand over
		// ownership on successful Send (the fleet router allocates a
		// fresh batch per flush).
		b.window = append(b.window, reps)
		return nil
	}
}

// ensureConn re-establishes the connection (replaying the unacked
// window) within the caller's per-call dial budget. Called with mu
// held; attempt persists across the caller's retry loop.
func (b *BatchReporter) ensureConn(ctx context.Context, attempt *int) error {
	for b.conn == nil {
		if *attempt >= b.cfg.DialAttempts {
			return fmt.Errorf("no connection to %s after %d reconnect attempts", b.addr, *attempt)
		}
		*attempt++
		if err := b.sleep(ctx, b.backoff(*attempt)); err != nil {
			return err
		}
		if err := b.reconnect(); err != nil {
			continue
		}
	}
	return nil
}

// writeBatch encodes one batch into the reused scratch buffer and
// flushes the frame to the wire.
func (b *BatchReporter) writeBatch(reps []gateway.Report) error {
	b.scratch = AppendBatchFrame(b.scratch[:0], reps)
	if _, err := b.bw.Write(b.scratch); err != nil {
		return err
	}
	return b.bw.Flush()
}

// readAck consumes one acknowledgement and retires the oldest unacked
// frame. A wrong byte is a protocol violation, handled like any other
// connection failure: teardown and replay.
func (b *BatchReporter) readAck() error {
	var buf [1]byte
	if _, err := io.ReadFull(b.br, buf[:]); err != nil {
		return err
	}
	if buf[0] != BatchAck {
		return fmt.Errorf("telemetry: bad ack byte %#02x from %s", buf[0], b.addr)
	}
	b.window = b.window[1:]
	return nil
}

// reconnect dials a fresh connection and replays the whole unacked
// window in order: those frames flushed locally but were never
// acknowledged, so the shard may or may not have appended them — the
// store's watermark dedups the ones that did land. Replayed frames stay
// in the window until their (new) acks arrive. A frame that fails to
// write mid-replay tears the connection down again and the window is
// retried on the next reconnect.
func (b *BatchReporter) reconnect() error {
	conn, err := b.cfg.Dial()
	if err != nil {
		return err
	}
	b.attach(conn)
	for _, reps := range b.window {
		if err := b.writeBatch(reps); err != nil {
			b.teardown()
			return err
		}
	}
	return nil
}

// teardown discards the live connection (and any half-written buffer
// with it); the in-flight frame is re-encoded whole on the next
// connection.
func (b *BatchReporter) teardown() {
	if b.conn != nil {
		_ = b.conn.Close() // conn already failed; reconnect resends the window
		b.conn = nil
		b.bw = nil
		b.br = nil
	}
}

// DrainTail removes and returns every report in the unacked window,
// oldest batch first. The fleet router calls this when it declares the
// shard dead: unacked reports were written but never confirmed
// appended, so they are re-routed to the surviving shards after
// catch-up replay (which makes redelivery of the ones that DID land
// idempotent).
func (b *BatchReporter) DrainTail() []gateway.Report {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []gateway.Report
	for _, batch := range b.window {
		out = append(out, batch...)
	}
	b.window = nil
	return out
}

// backoff returns the jittered exponential delay before reconnect
// attempt n (n >= 1): the base doubles per attempt up to the cap, then
// the delay is drawn uniformly from [d/2, d] so a fleet of reporters
// does not reconnect in lockstep.
func (b *BatchReporter) backoff(attempt int) time.Duration {
	d := b.cfg.BaseBackoff << uint(attempt-1)
	if d <= 0 || d > b.cfg.MaxBackoff {
		d = b.cfg.MaxBackoff
	}
	half := d / 2
	return half + time.Duration(b.rng.Int63n(int64(half)+1))
}

// sleep waits for d or until ctx is done.
func (b *BatchReporter) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close closes the connection. Close does not retry and discards the
// unacked window; call Flush first when delivery confirmation matters
// (the fleet router's Flush does).
func (b *BatchReporter) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	b.closed = true
	var err error
	if b.conn != nil {
		// Final close under mu: closed is already set, so no Send can queue behind it.
		err = b.conn.Close()
		b.conn = nil
		b.bw = nil
		b.br = nil
	}
	return err
}
