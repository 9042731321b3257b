// Package fleet is the ingest tier: a consistent-hash router (keyed by
// gateway ID) in front of N shards, each owning its own homestore
// partition under <root>/shard-NNNN/. A single-node collector is a
// 1-shard fleet. One Config describes every shard: shard i is
// ShardName(i) over PartitionDir(Dir, i), and Start is the only way to
// run one. Reports travel as CRC'd batch frames (the batch
// protocol of internal/telemetry) under the BatchReporter's backoff and
// unacked-window discipline; on shard loss the router shrinks the ring,
// replays the dead partition's durable history to the surviving shards,
// then re-routes the in-flight tail — the replay-first ordering plus the
// store's per-series WAL watermarks make the handoff idempotent, so the
// fleet loses no acknowledged report.
//
// FLEET.md documents the architecture, the frame format, the rebalance
// protocol and a worked 4-shard campaign.
package fleet

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"homesight/internal/gateway"
	"homesight/internal/livestats"
	"homesight/internal/obs"
	"homesight/internal/store"
	"homesight/internal/telemetry"
)

// Config configures an in-process Fleet: N shards under one root
// directory, the deployment shape `homesight collector` runs. Shard i is
// a TCP server speaking the batch frame protocol into its own homestore
// partition, Dir/shard-NNNN/, under the ring identity ShardName(i):
// placement is keyed by name, not address, so a shard can restart on a
// new port without moving gateways.
type Config struct {
	// Dir is the fleet root; shard i's partition lives at
	// PartitionDir(Dir, i).
	Dir string
	// Shards is the shard count (≥ 1).
	Shards int
	// Addr is the listen address template, one ephemeral port per shard
	// ("" → "127.0.0.1:0").
	Addr string
	// Start and Step anchor a new partition's minute grid; Sync is its
	// WAL fsync policy. They pass straight through to store.Config, and a
	// reopened partition keeps the anchor in its meta.json.
	Start time.Time
	Step  time.Duration
	Sync  store.SyncPolicy
	// ReadTimeout closes a shard connection silent this long; 0 →
	// DefaultReadTimeout, negative → no deadline.
	ReadTimeout time.Duration
	// Metrics receives the fleet instruments, shared by every shard.
	// nil → a private registry. Each shard's embedded store always uses
	// a private registry: several partitions on one shared registry
	// would fight over the store's gauges, so per-shard visibility comes
	// from the homesight_fleet_* families instead.
	Metrics *FleetMetrics
	// Live, when set, runs a livestats.Tracker behind every shard's
	// ingest path: every appended report also advances the tracker, and
	// on start the tracker rebuilds from the partition's durable
	// history, so snapshots survive a shard restart (and, via catch-up
	// replay into a survivor, a shard kill). The grid (Start, Step) is
	// the partition's, not Live's. Live.Metrics is honoured: every
	// homesight_live_* instrument only accumulates (counters,
	// histograms, gauges raised when a home or device is first seen), so
	// trackers sharing one Metrics add up across shards; nil keeps them
	// private. The Fleet then satisfies the query tier's LiveSource,
	// fanning lookups out across the shards.
	Live *livestats.Config
}

// Fleet is a set of in-process shards sharing one root directory — the
// serving side of the tier. Pair it with a Router over Addrs() for the
// full pipeline; Fleet.ReplayFunc wires the router's catch-up replay to
// the on-disk partitions.
type Fleet struct {
	shards []*Shard
}

// Start opens every partition and starts every shard listener.
func Start(cfg Config) (*Fleet, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("fleet: Config.Shards must be >= 1, got %d", cfg.Shards)
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("fleet: Config.Dir is required")
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.ReadTimeout == 0 {
		cfg.ReadTimeout = DefaultReadTimeout
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewFleetMetrics(obs.NewRegistry())
	}
	f := &Fleet{}
	for i := 0; i < cfg.Shards; i++ {
		s, err := startShard(context.Background(), cfg, i)
		if err != nil {
			f.closeAll()
			return nil, fmt.Errorf("fleet: starting %s: %w", ShardName(i), err)
		}
		f.shards = append(f.shards, s)
	}
	// Start-up — opening partitions, replaying WALs, rebuilding trackers,
	// and whatever the process loaded before calling Start — leaves garbage
	// the pacer would count into its next heap goal, so the fleet's peak
	// footprint would depend on where start-up's last collection happened
	// to fall (anywhere up to 2× the start-up heap). One collection here
	// sets the goal from what is live when serving begins.
	runtime.GC()
	return f, nil
}

// Addrs returns every shard's ring identity and live listen address —
// the RouterConfig.Shards value for a router over this fleet.
func (f *Fleet) Addrs() []ShardAddr {
	out := make([]ShardAddr, len(f.shards))
	for i, s := range f.shards {
		out[i] = ShardAddr{Name: s.Name(), Addr: s.Addr()}
	}
	return out
}

// Shard returns shard i.
func (f *Fleet) Shard(i int) *Shard { return f.shards[i] }

// Kill crash-stops shard i (see Shard.Kill): its partition stays on
// disk for the router's catch-up replay.
func (f *Fleet) Kill(i int) { f.shards[i].Kill() }

// ReplayFunc returns the standard catch-up replay implementation for a
// router over this fleet: it reopens the named dead partition, streams
// its recovered history through send, and — only after a fully
// successful replay — retires the partition so the live read set stays
// disjoint by gateway.
func (f *Fleet) ReplayFunc() ReplayFunc {
	return func(shard string, send func(gateway.Report) error) error {
		dir := ""
		for _, s := range f.shards {
			if s.Name() == shard {
				dir = s.Dir()
				break
			}
		}
		if dir == "" {
			return fmt.Errorf("fleet: replay of unknown shard %q", shard)
		}
		if _, err := ReplayPartition(dir, send); err != nil {
			return err
		}
		return RetirePartition(dir)
	}
}

// LiveHomes returns every gateway with live state anywhere in the
// fleet, sorted — the LiveSource view over all shard trackers.
func (f *Fleet) LiveHomes() []string {
	seen := make(map[string]bool)
	for _, s := range f.shards {
		if s.tracker == nil {
			continue
		}
		for _, gw := range s.tracker.Homes() {
			seen[gw] = true
		}
	}
	out := make([]string, 0, len(seen))
	for gw := range seen {
		out = append(out, gw)
	}
	sort.Strings(out)
	return out
}

// LiveSnapshot returns the live analysis of one home from the shard
// that owns it. Open shards win: after a kill + catch-up replay both
// the dead shard's tracker (stale, frozen at the crash) and the
// survivor's (complete, rebuilt through replay) know the gateway, and
// the survivor is the one still serving. With every shard closed
// (post-Drain inspection) the deepest snapshot — most reports consumed
// — is the authoritative one.
func (f *Fleet) LiveSnapshot(gw string) (*livestats.HomeSnapshot, bool) {
	var fallback *livestats.HomeSnapshot
	for _, s := range f.shards {
		if s.tracker == nil {
			continue
		}
		snap, ok := s.tracker.Snapshot(gw)
		if !ok {
			continue
		}
		if s.open() {
			return snap, true
		}
		if fallback == nil || snap.Reports > fallback.Reports {
			fallback = snap
		}
	}
	return fallback, fallback != nil
}

// Drain gracefully stops every still-running shard: each finishes
// reading its connected streams to EOF before its partition closes, so
// every frame a router flushed before closing is appended. Call it
// after the routers have closed; killed shards are skipped (their
// ErrClosed is expected, not an error).
func (f *Fleet) Drain() error {
	var err error
	for _, s := range f.shards {
		if cerr := s.Drain(); cerr != nil && cerr != telemetry.ErrClosed && err == nil {
			err = cerr
		}
	}
	return err
}

// Close force-closes every still-running shard: live connections drop
// and frames in flight on them are lost. Prefer Drain when trailing
// delivery matters; killed shards are skipped.
func (f *Fleet) Close() error {
	var err error
	for _, s := range f.shards {
		if cerr := s.Close(); cerr != nil && cerr != telemetry.ErrClosed && err == nil {
			err = cerr
		}
	}
	return err
}

func (f *Fleet) closeAll() {
	for _, s := range f.shards {
		_ = s.Close() // constructor failure path: the partial fleet is torn down best-effort
	}
}
