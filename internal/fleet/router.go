package fleet

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"homesight/internal/gateway"
	"homesight/internal/obs"
	"homesight/internal/telemetry"
)

// DefaultBatchSize is the flush threshold of a router's per-shard
// batch: enough reports per frame to amortize framing and syscalls,
// small enough that a lost frame costs well under a minute of fleet
// history.
const DefaultBatchSize = 128

// ShardAddr names one shard endpoint: the stable ring identity plus
// where it currently listens.
type ShardAddr struct {
	Name string
	Addr string
}

// ReplayFunc streams a dead shard's durable history back into the
// router, one report at a time, oldest timestamps first (per-series
// ascending order is what keeps the receiving watermarks exact). It is
// called during rebalance with the router's lock held; send routes over
// the surviving ring. Fleet.ReplayFunc is the standard implementation.
type ReplayFunc func(shard string, send func(gateway.Report) error) error

// RouterConfig configures a Router. Shards is required and fixed for
// the router's lifetime: membership only shrinks (on shard loss), it
// never grows — adding capacity is a deployment-time event, not a
// runtime one.
type RouterConfig struct {
	// Shards is the initial shard set. Every shard is dialed eagerly by
	// NewRouter so configuration errors surface immediately, as
	// DialBatch does.
	Shards []ShardAddr
	// BatchSize is the per-shard flush threshold in reports. 0 →
	// DefaultBatchSize.
	BatchSize int
	// Reporter is the retry envelope template for every per-shard batch
	// reporter (backoff, dial attempts, unacked-window depth). Its Dial
	// field is ignored; set DialShard instead.
	Reporter telemetry.ReporterConfig
	// DialShard opens the transport to one shard address. nil →
	// net.Dial("tcp", addr). Tests inject faultnet wrappers here.
	DialShard func(addr string) (net.Conn, error)
	// Replay, when set, is invoked on shard loss to stream the dead
	// partition's history to the survivors before any newer traffic is
	// re-routed. nil disables catch-up replay: the dead partition keeps
	// its history and the fleet read must merge it (degraded mode).
	Replay ReplayFunc
	// Metrics receives the fleet instruments and is what Stats reads;
	// give each router its own bundle. nil → a private registry.
	Metrics *FleetMetrics
}

func (cfg RouterConfig) withDefaults() RouterConfig {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	if cfg.DialShard == nil {
		cfg.DialShard = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewFleetMetrics(obs.NewRegistry())
	}
	return cfg
}

// RouterStats is a snapshot of a router's delivery accounting. The
// counters satisfy the identity
//
//	ReportsRouted = caller Sends + ReplayedReports + ReassignedReports
//
// — every report enters the ring exactly once per routing decision, so
// the fleet's exact-accounting tests reconcile field by field. Each
// field reads the FleetMetrics series of the same name.
type RouterStats struct {
	// ReportsRouted counts every report bucketed onto the ring,
	// including replayed and reassigned ones.
	ReportsRouted int64 `json:"reports_routed"`
	// BatchesFlushed counts successfully delivered batch frames.
	BatchesFlushed int64 `json:"batches_flushed"`
	// Rebalances counts shard-loss events this router survived.
	Rebalances int64 `json:"rebalances"`
	// ReplayedReports counts reports streamed out of dead partitions by
	// catch-up replay.
	ReplayedReports int64 `json:"replayed_reports"`
	// ReassignedReports counts in-flight reports (unacked window +
	// pending batch) re-routed from a dead shard to the survivors.
	ReassignedReports int64 `json:"reassigned_reports"`
}

// Router is the fleet's front end: it buckets reports by consistent
// hash of the gateway ID, batches per shard, and ships frames through
// per-shard BatchReporters. On shard loss it shrinks the ring, replays
// the dead partition's history to the new owners (RouterConfig.Replay),
// then re-routes the dead shard's in-flight reports — in that order,
// so the survivors' watermarks absorb the replayed history before any
// newer duplicate can advance them past it. All methods are safe for
// concurrent use; one lock serializes routing, which keeps rebalance
// atomic with respect to Send.
type Router struct {
	cfg  RouterConfig
	ring *Ring
	// now is the clock behind the replay-lag measurement.
	now func() time.Time

	mu     sync.Mutex
	shards map[string]*routerShard
	closed bool
}

type routerShard struct {
	name    string
	rep     *telemetry.BatchReporter
	pending []gateway.Report
}

// NewRouter dials every configured shard and returns a ready router.
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("fleet: RouterConfig.Shards is required")
	}
	r := &Router{cfg: cfg, ring: NewRing(DefaultVNodes), now: time.Now, shards: make(map[string]*routerShard)}
	for _, sa := range cfg.Shards {
		if sa.Name == "" || sa.Addr == "" {
			return nil, fmt.Errorf("fleet: shard needs both name and addr, got %+v", sa)
		}
		if _, dup := r.shards[sa.Name]; dup {
			return nil, fmt.Errorf("fleet: duplicate shard name %q", sa.Name)
		}
		repCfg := cfg.Reporter
		addr := sa.Addr
		repCfg.Dial = func() (net.Conn, error) { return cfg.DialShard(addr) }
		rep, err := telemetry.DialBatch(addr, repCfg)
		if err != nil {
			_ = r.closeLocked()
			return nil, fmt.Errorf("fleet: dialing shard %s at %s: %w", sa.Name, addr, err)
		}
		r.shards[sa.Name] = &routerShard{name: sa.Name, rep: rep}
		r.ring.Add(sa.Name)
	}
	return r, nil
}

// ShardFor returns the live shard currently owning gatewayID ("" when
// none are left).
func (r *Router) ShardFor(gatewayID string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Lookup(gatewayID)
}

// Live returns the surviving shard names, sorted.
func (r *Router) Live() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Shards()
}

// Stats returns a snapshot of the router's delivery accounting, read
// from its FleetMetrics. Every increment happens under mu, so holding
// it here makes one snapshot satisfy the routing identity.
func (r *Router) Stats() RouterStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.cfg.Metrics
	return RouterStats{
		ReportsRouted:     m.ReportsRouted.Value(),
		BatchesFlushed:    m.BatchesFlushed.Value(),
		Rebalances:        m.Rebalances.Value(),
		ReplayedReports:   m.ReplayedReports.Value(),
		ReassignedReports: m.ReassignedReports.Value(),
	}
}

// Send routes one report: it joins its shard's batch and the batch is
// flushed once it reaches BatchSize. A delivery failure triggers the
// rebalance protocol inline; Send only returns an error when the ring
// is empty, replay fails, or ctx is done — a single shard loss is
// absorbed silently.
func (r *Router) Send(ctx context.Context, rep gateway.Report) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return telemetry.ErrClosed
	}
	// mu held across delivery: routing, batching and rebalance must be
	// atomic with respect to concurrent Sends.
	return r.sendLocked(ctx, rep)
}

// Flush delivers every shard's partial batch, in shard-name order for
// determinism, then drains every reporter's unacked window. A nil
// return is the fleet's durability barrier: every report ever accepted
// by Send has been appended by a live shard (and, under SyncAlways,
// fsynced). A shard that dies during the barrier triggers the same
// rebalance protocol as a Send-time loss. Call Flush at campaign end
// (or on a period) so trailing reports do not wait for a full batch.
func (r *Router) Flush(ctx context.Context) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return telemetry.ErrClosed
	}
	// mu held across the full flush: Sends racing a Flush must not interleave frames.
	return r.flushAllLocked(ctx)
}

func (r *Router) flushAllLocked(ctx context.Context) error {
	// One pass ships every pending batch, then waits for every ack. A
	// shard lost anywhere in the pass is rebalanced, and the rebalance
	// re-routes the dead shard's history and in-flight reports onto the
	// survivors — as new pending batches, possibly on a shard this pass
	// already shipped or drained. So repeat the pass until one loses no
	// shard: only a rebalance queues reports while mu is held, so after
	// such a pass nothing is pending and nothing is unacked. Each repeat
	// removed a shard; the loop is bounded by the shard count.
	for {
		live := len(r.shards)
		for _, name := range r.ring.Shards() {
			sh := r.shards[name]
			if sh == nil {
				continue
			}
			if err := r.flushShardLocked(ctx, sh); err != nil {
				return err
			}
		}
		for _, name := range r.ring.Shards() {
			sh := r.shards[name]
			if sh == nil {
				continue
			}
			if err := sh.rep.Flush(ctx); err != nil {
				if ctx.Err() != nil {
					return err
				}
				if err := r.rebalanceLocked(ctx, sh, nil, err); err != nil {
					return err
				}
			}
		}
		if len(r.shards) == live {
			return nil
		}
	}
}

func (r *Router) sendLocked(ctx context.Context, rep gateway.Report) error {
	name := r.ring.Lookup(rep.GatewayID)
	if name == "" {
		return fmt.Errorf("fleet: no live shards for gateway %s", rep.GatewayID)
	}
	sh := r.shards[name]
	sh.pending = append(sh.pending, rep)
	r.cfg.Metrics.ReportsRouted.Inc()
	if len(sh.pending) >= r.cfg.BatchSize {
		return r.flushShardLocked(ctx, sh)
	}
	return nil
}

// flushShardLocked ships sh's pending batch. On delivery failure the
// shard is declared dead and the rebalance protocol runs; the
// undelivered batch rides along as reassigned reports.
func (r *Router) flushShardLocked(ctx context.Context, sh *routerShard) error {
	if len(sh.pending) == 0 {
		return nil
	}
	batch := sh.pending
	sh.pending = nil
	if err := sh.rep.Send(ctx, batch); err != nil {
		if ctx.Err() != nil {
			// Cancellation, not shard death: keep the batch for the next
			// flush attempt.
			sh.pending = batch
			return err
		}
		return r.rebalanceLocked(ctx, sh, batch, err)
	}
	// The reporter keeps the batch until it is acked, so the next one gets
	// fresh storage, sized once to this one.
	sh.pending = make([]gateway.Report, 0, len(batch))
	r.cfg.Metrics.BatchesFlushed.Inc()
	return nil
}

// rebalanceLocked is the shard-loss protocol, run inline under the
// router lock:
//
//  1. The dead shard leaves the ring; its gateways re-hash onto the
//     survivors (and only those gateways move — the ring's
//     minimal-movement contract).
//  2. Catch-up replay streams the dead partition's durable history
//     through the surviving ring, oldest first. After this step the
//     survivors' watermarks cover everything the dead shard had
//     absorbed.
//  3. The dead shard's in-flight reports — its unacked window (written
//     but never confirmed appended) and undelivered pending batch —
//     are re-routed. Unacked reports that DID land before the crash
//     were also replayed in step 2, so the receiving watermark drops
//     them: redelivery is idempotent, which is the whole point of
//     running replay first.
//
// A failure cascading into another shard loss recurses; the recursion
// is bounded by the shard count, and an empty ring is the terminal
// error.
func (r *Router) rebalanceLocked(ctx context.Context, sh *routerShard, undelivered []gateway.Report, cause error) error {
	r.cfg.Metrics.Rebalances.Inc()
	r.ring.Remove(sh.name)
	delete(r.shards, sh.name)
	orphans := sh.rep.DrainTail()
	orphans = append(orphans, undelivered...)
	_ = sh.rep.Close() // the transport already failed; nothing left to flush
	if len(r.shards) == 0 {
		return fmt.Errorf("fleet: last shard %s lost: %w", sh.name, cause)
	}
	if r.cfg.Replay != nil {
		start := r.now()
		replayed := 0
		err := r.cfg.Replay(sh.name, func(rep gateway.Report) error {
			replayed++
			return r.sendLocked(ctx, rep)
		})
		r.cfg.Metrics.ReplayedReports.Add(int64(replayed))
		r.cfg.Metrics.ReplayLag.Set(r.now().Sub(start).Seconds())
		if err != nil {
			return fmt.Errorf("fleet: catch-up replay of %s failed after %d reports: %w", sh.name, replayed, err)
		}
	}
	for _, rep := range orphans {
		r.cfg.Metrics.ReassignedReports.Inc()
		if err := r.sendLocked(ctx, rep); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes nothing and closes every reporter; call Flush first
// when trailing delivery matters. Reports still batched are reported as
// an error.
func (r *Router) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return telemetry.ErrClosed
	}
	r.closed = true
	// Final close under mu: closed is already set, so no Send can queue behind it.
	return r.closeLocked()
}

func (r *Router) closeLocked() error {
	var err error
	left := 0
	names := make([]string, 0, len(r.shards))
	for name := range r.shards {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sh := r.shards[name]
		left += len(sh.pending)
		if sh.rep != nil {
			if cerr := sh.rep.Close(); err == nil && cerr != telemetry.ErrClosed {
				err = cerr
			}
		}
	}
	if err == nil && left > 0 {
		err = fmt.Errorf("fleet: closed with %d reports unbatched", left)
	}
	return err
}
