// Command collector runs the central telemetry sink of Sec. 3: gateways
// stream their per-minute counter reports over TCP, in CRC'd batch
// frames, to an ingest fleet of -shards shards, each appending into its
// own homestore partition under <data-dir>/shard-NNNN/. A single-node
// collector is the default: a 1-shard fleet.
//
// Usage:
//
//	collector -addr 127.0.0.1:7800       # serve until interrupted
//	collector -demo -homes 5 -weeks 1    # replay a synthetic campaign
//
// In demo mode the command simulates the given homes, routes their
// campaign through a consistent-hash router over real TCP at full speed
// and drains the fleet. It then reads every gateway back from the
// partitions, in gateway order, and prints the per-gateway totals and
// the daily motifs (Def. 5) mined over all of them — output that depends
// on neither the shard count nor goroutine scheduling.
//
// -data-dir is the fleet root; empty means a temporary root removed at
// exit. -fsync selects the WAL policy (interval, always, never). Inspect
// a partition with cmd/homestore -dir <data-dir>/shard-0000. See
// FLEET.md and STORAGE.md.
//
// -debug-addr serves live observability (Prometheus /metrics, /healthz,
// /debug/pprof): the homesight_fleet_* families and, with -live, the
// homesight_live_* ones. See OBSERVABILITY.md.
//
// -live runs a livestats.Tracker on every shard — the paper's
// correlation, threshold and dominance definitions as O(1) online
// operators — and serves GET /api/v1/homes/{gw}/live on -debug-addr.
// -hold keeps a demo process, and with it the debug server, alive for
// the given duration after the campaign so the live tier can be
// inspected. See STREAMING.md.
//
// -router name=addr,... replays the demo campaign against an
// already-running fleet's shard listeners instead of starting one.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"homesight/internal/aggregate"
	"homesight/internal/background"
	"homesight/internal/core"
	"homesight/internal/fleet"
	"homesight/internal/gateway"
	"homesight/internal/livestats"
	"homesight/internal/motif"
	"homesight/internal/obs"
	"homesight/internal/obs/slogx"
	"homesight/internal/query"
	homestore "homesight/internal/store"
	"homesight/internal/synth"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	default:
		slogx.With("component", "collector").Fatal("collector failed", "err", err)
	}
}

// run is the whole command: it parses args and writes the demo's report
// to stdout; logs go to stderr.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("collector", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:0", "listen address of every shard")
	demo := fs.Bool("demo", false, "replay a synthetic deployment through the fleet")
	homes := fs.Int("homes", 5, "demo: number of gateways")
	weeks := fs.Int("weeks", 1, "demo: campaign length")
	seed := fs.Int64("seed", 0, "demo: master seed; also seeds the live rank reservoirs")
	debugAddr := fs.String("debug-addr", "",
		"serve /metrics, /healthz and /debug/pprof on this address (empty = off)")
	dataDir := fs.String("data-dir", "",
		"fleet root: shard i persists to <dir>/shard-NNNN (empty = a temporary root removed at exit)")
	fsync := fs.String("fsync", "interval", "homestore WAL fsync policy: interval, always, never")
	shards := fs.Int("shards", 1, "number of ingest shards")
	routerTo := fs.String("router", "",
		"demo: route the campaign to an external fleet, comma-separated name=addr pairs")
	live := fs.Bool("live", false,
		"maintain O(1) live analytics per home and serve /api/v1/homes/{gw}/live on -debug-addr")
	hold := fs.Duration("hold", 0,
		"demo: keep the process (and -debug-addr) up this long after the campaign completes")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn, error")
	if err := fs.Parse(args); err != nil {
		return err
	}
	lvl, err := slogx.ParseLevel(*logLevel)
	if err != nil {
		return fmt.Errorf("-log-level: %w", err)
	}
	slogx.SetLevel(lvl)
	logger := slogx.With("component", "collector")
	dep := synth.NewDeployment(synth.Config{Homes: *homes, Weeks: *weeks, Seed: *seed})
	reg := obs.NewRegistry()

	if *routerTo != "" {
		addrs, err := parseShardAddrs(*routerTo)
		if err != nil {
			return fmt.Errorf("-router: %w", err)
		}
		stop, err := startDebug(logger, *debugAddr, reg, nil)
		if err != nil {
			return err
		}
		defer stop()
		return campaign(logger, stdout, dep, fleet.RouterConfig{Shards: addrs})
	}

	policy, err := parseSyncPolicy(*fsync)
	if err != nil {
		return fmt.Errorf("-fsync: %w", err)
	}
	root := *dataDir
	if root == "" {
		if root, err = os.MkdirTemp("", "collector-"); err != nil {
			return err
		}
		defer func() { _ = os.RemoveAll(root) }()
	}
	cfg := dep.Config()
	metrics := fleet.NewFleetMetrics(reg)
	fcfg := fleet.Config{
		Dir: root, Shards: *shards, Addr: *addr,
		Start: cfg.Start, Step: time.Minute, Sync: policy, Metrics: metrics,
	}
	if *live {
		fcfg.Live = &livestats.Config{Seed: *seed, Metrics: livestats.NewMetrics(reg)}
	}
	f, err := fleet.Start(fcfg)
	if err != nil {
		return err
	}
	// Drained shards are skipped; an error path's shards close best-effort.
	defer func() { _ = f.Close() }()
	for _, sa := range f.Addrs() {
		logger.Info("shard listening", "shard", sa.Name, "addr", sa.Addr)
	}
	var api http.Handler
	if *live {
		if st := liveStats(f, *shards); st.ReportsProcessed > 0 {
			logger.Info("live state rebuilt", "reports", st.ReportsProcessed, "homes", st.Homes)
		}
		api = query.New(query.Config{Live: f, Registry: reg}).Handler()
	}
	stop, err := startDebug(logger, *debugAddr, reg, api)
	if err != nil {
		return err
	}
	defer stop()

	// SIGINT and SIGTERM end serving or holding through the deferred
	// cleanup, which removes a temporary root.
	stopped, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if !*demo {
		<-stopped.Done()
		logger.Info("shutting down", "shards", *shards)
		printShardStats(stdout, f, *shards)
		return f.Close()
	}
	err = campaign(logger, stdout, dep, fleet.RouterConfig{
		Shards: f.Addrs(), Metrics: metrics, Replay: f.ReplayFunc(),
	})
	if err != nil {
		return err
	}
	if err := f.Drain(); err != nil {
		return err
	}
	printShardStats(stdout, f, *shards)
	if err := report(stdout, root, cfg); err != nil {
		return err
	}
	if *live {
		st := liveStats(f, *shards)
		fmt.Fprintf(stdout, "live analytics: %d homes, %d devices, %d reports processed, %d stale rows\n",
			st.Homes, st.Devices, st.ReportsProcessed, st.StaleRows)
	}
	if *hold > 0 {
		logger.Info("holding for inspection", "hold", *hold)
		select {
		case <-time.After(*hold):
		case <-stopped.Done():
		}
	}
	return nil
}

// parseSyncPolicy maps the -fsync flag vocabulary onto store.SyncPolicy.
func parseSyncPolicy(s string) (homestore.SyncPolicy, error) {
	switch s {
	case "interval":
		return homestore.SyncInterval, nil
	case "always":
		return homestore.SyncAlways, nil
	case "never":
		return homestore.SyncNever, nil
	}
	return 0, fmt.Errorf("unknown fsync policy %q (want interval, always or never)", s)
}

// startDebug serves the registry (and api under /api/v1/, when given)
// on addr; "" serves nothing. The returned func stops the server.
func startDebug(logger *slogx.Logger, addr string, reg *obs.Registry, api http.Handler) (func(), error) {
	if addr == "" {
		return func() {}, nil
	}
	var opts []obs.ServerOption
	if api != nil {
		opts = append(opts, obs.WithHandler("/api/v1/", api))
	}
	srv, err := obs.NewServer(addr, reg, opts...)
	if err != nil {
		return nil, fmt.Errorf("debug server on %s: %w", addr, err)
	}
	logger.Info("debug server listening", "addr", srv.Addr())
	return func() { _ = srv.Close() }, nil
}

// liveStats sums the shard trackers' accounting; homes are counted once
// across the fleet.
func liveStats(f *fleet.Fleet, shards int) livestats.TrackerStats {
	var sum livestats.TrackerStats
	for i := 0; i < shards; i++ {
		st := f.Shard(i).LiveTracker().Stats()
		sum.ReportsProcessed += st.ReportsProcessed
		sum.StaleRows += st.StaleRows
		sum.Devices += st.Devices
	}
	sum.Homes = int64(len(f.LiveHomes()))
	return sum
}

func printShardStats(w io.Writer, f *fleet.Fleet, shards int) {
	for i := 0; i < shards; i++ {
		s := f.Shard(i)
		st := s.Stats()
		fmt.Fprintf(w, "  %s  reports=%d frames=%d conns=%d append_errors=%d\n",
			s.Name(), st.ReportsAppended, st.FramesDecoded, st.ConnsOpened, st.AppendErrors)
	}
}

// parseShardAddrs parses the -router vocabulary: "shard-0000=host:port,
// shard-0001=host:port". Ring identity is the name, not the address, so
// the pairs must match the names the shards were started with.
func parseShardAddrs(spec string) ([]fleet.ShardAddr, error) {
	var out []fleet.ShardAddr
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, addr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad shard spec %q (want name=addr)", part)
		}
		out = append(out, fleet.ShardAddr{Name: name, Addr: addr})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no shards in %q", spec)
	}
	return out, nil
}

// campaign streams the deployment's full campaign minute-major through
// a router configured by rcfg and prints the delivery accounting.
func campaign(logger *slogx.Logger, w io.Writer, dep *synth.Deployment, rcfg fleet.RouterConfig) error {
	cfg := dep.Config()
	r, err := fleet.NewRouter(rcfg)
	if err != nil {
		return err
	}
	emits := make([]func(int) gateway.Report, dep.NumHomes())
	for i := range emits {
		h := dep.Home(i)
		traffic := h.Traffic()
		em := gateway.NewEmitter(h.ID)
		// One minute buffer per home, refilled every minute: Emit copies
		// what it keeps.
		dms := make([]gateway.DeviceMinute, len(traffic))
		for d, dt := range traffic {
			dms[d].MAC, dms[d].Name = dt.Spec.Device.MAC, dt.Spec.Device.Name
		}
		emits[i] = func(m int) gateway.Report {
			for d, dt := range traffic {
				dms[d].InBytes, dms[d].OutBytes = dt.In.Values[m], dt.Out.Values[m]
			}
			return em.Emit(cfg.Start.Add(time.Duration(m)*time.Minute), dms)
		}
	}
	ctx := context.Background()
	start := time.Now()
	sent := 0
	for m := 0; m < cfg.Minutes(); m++ {
		for i := range emits {
			rep := emits[i](m)
			if len(rep.Devices) == 0 {
				continue
			}
			if err := r.Send(ctx, rep); err != nil {
				_ = r.Close()
				return fmt.Errorf("minute %d gateway %s: %w", m, rep.GatewayID, err)
			}
			sent++
		}
	}
	if err := r.Flush(ctx); err != nil {
		_ = r.Close()
		return err
	}
	stats := r.Stats()
	elapsed := time.Since(start)
	if err := r.Close(); err != nil {
		return err
	}
	logger.Info("fleet campaign complete", "shards", len(rcfg.Shards), "live", len(r.Live()))
	fmt.Fprintf(w, "fleet: routed %d reports in %s (%.0f reports/s) across %d shards\n",
		sent, elapsed.Round(time.Millisecond), float64(sent)/elapsed.Seconds(), len(rcfg.Shards))
	fmt.Fprintf(w, "router: %d batches flushed, %d rebalances, %d replayed, %d reassigned\n",
		stats.BatchesFlushed, stats.Rebalances, stats.ReplayedReports, stats.ReassignedReports)
	return nil
}

// report reads every gateway back from the fleet's live partitions, in
// gateway order, over the synth campaign's grid, and prints its totals
// and the daily motifs (Def. 5) mined over all gateways' observed
// windows, background removed at the paper's cap. Both depend only on
// what the partitions hold.
func report(w io.Writer, root string, cfg synth.Config) error {
	dirs, err := fleet.LivePartitions(root)
	if err != nil {
		return err
	}
	owner := make(map[string]*homestore.Store)
	for _, dir := range dirs {
		st, err := homestore.Open(homestore.Config{Dir: dir})
		if err != nil {
			return err
		}
		defer func() { _ = st.Close() }()
		for _, gw := range st.Gateways() {
			if _, split := owner[gw]; split {
				return fmt.Errorf("gateway %s is in more than one partition under %s", gw, root)
			}
			owner[gw] = st
		}
	}
	gws := make([]string, 0, len(owner))
	for gw := range owner {
		gws = append(gws, gw)
	}
	sort.Strings(gws)

	// One grid for every partition: each store's own campaign end would
	// differ by shard.
	to := cfg.Start.Add(time.Duration(cfg.Minutes()) * time.Minute)
	var instances []motif.Instance
	fmt.Fprintln(w, "gateway totals (reconstructed from counter reports):")
	for _, gw := range gws {
		g, err := owner[gw].Home(context.Background(), gw, to)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %s  devices=%d  total=%.3g bytes\n", gw, len(g.Devices), g.Overall.Total())
		insts, err := motif.Instances(gw, g.Overall.Threshold(background.CapBytes), aggregate.BestDaily)
		if err != nil {
			return err
		}
		instances = append(instances, insts...)
	}
	motifs := core.Default.Miner().Mine(instances)
	fmt.Fprintf(w, "discovered %d daily motifs in %d windows:\n", len(motifs), len(instances))
	for _, m := range motifs {
		fmt.Fprintf(w, "  motif %d: support %d across %d gateways\n", m.ID, m.Support(), len(m.Gateways()))
	}
	return nil
}
