package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"homesight/internal/aggregate"
	"homesight/internal/background"
	"homesight/internal/corrsim"
	"homesight/internal/dominance"
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

// runCollector runs the central telemetry sink of Sec. 3: gateways
// stream their per-minute counter reports over TCP, in CRC'd batch
// frames, to an ingest fleet of -shards shards, each appending into its
// own homestore partition under <data-dir>/shard-NNNN/. A single-node
// collector is the default: a 1-shard fleet.
//
//	homesight collector -addr 127.0.0.1:7800       # serve until interrupted
//	homesight collector -demo -homes 5 -weeks 1    # replay a synthetic campaign
//
// In demo mode the command simulates the given homes, routes their
// campaign through a consistent-hash router over real TCP at full speed
// and drains the fleet. It prints the router's delivery accounting, then
// reads every gateway back from the partitions, in gateway order, and
// prints the per-gateway totals and the daily motifs (Def. 5) mined over
// all of them — output that depends on neither the shard count nor
// goroutine scheduling.
//
// -kill crash-stops the shard that owns gw000 40% through the demo
// campaign: the router's rebalance and catch-up replay must absorb the
// loss, and the accounting must still reconcile exactly (see FLEET.md).
// It needs at least two shards and forces -fsync always: an acked
// report is then durable, the premise of the replay.
//
// -data-dir is the fleet root; empty means a temporary root removed at
// exit. -fsync selects the WAL policy (interval, always, never). Inspect
// a partition with `homesight store inspect -dir <data-dir>/shard-0000`.
// See FLEET.md and STORAGE.md.
//
// -debug-addr serves live observability (Prometheus /metrics, /healthz,
// /debug/pprof): the homesight_fleet_* families and, with -live, the
// homesight_live_* ones. See OBSERVABILITY.md.
//
// -live runs a livestats.Tracker on every shard — the paper's
// correlation, threshold and dominance definitions as O(1) online
// operators, their rank reservoirs seeded by -seed — and serves
// GET /api/v1/homes/{gw}/live on -debug-addr. A -live demo ends by
// reconciling every home's online answer against the batch pipeline
// over the recovered partitions; beyond the documented tolerances
// (STREAMING.md) it fails. -hold keeps a demo process, and with it the
// debug server, alive for the given duration after the campaign so the
// live tier can be inspected.
//
// -router name=addr,... replays the demo campaign against an
// already-running fleet's shard listeners instead of starting one.
func runCollector(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("collector", flag.ContinueOnError)
	sh := sharedFlags(fs, 5, 1)
	addr := fs.String("addr", "127.0.0.1:0", "listen address of every shard")
	demo := fs.Bool("demo", false, "replay a synthetic deployment through the fleet")
	dataDir := fs.String("data-dir", "",
		"fleet root: shard i persists to <dir>/shard-NNNN (empty = a temporary root removed at exit)")
	fsync := fs.String("fsync", "interval", "homestore WAL fsync policy: interval, always, never")
	shards := fs.Int("shards", 1, "number of ingest shards")
	routerTo := fs.String("router", "",
		"demo: route the campaign to an external fleet, comma-separated name=addr pairs")
	live := fs.Bool("live", false,
		"maintain O(1) live analytics per home and serve /api/v1/homes/{gw}/live on -debug-addr")
	kill := fs.Bool("kill", false,
		"demo: crash-stop the shard owning gw000 40% through the campaign (needs -shards >= 2; forces -fsync always)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	logger := slogx.With("component", "collector")
	dep := synth.NewDeployment(synth.Config{Homes: sh.homes, Weeks: sh.weeks, Seed: sh.seed})
	reg := obs.NewRegistry()

	if *routerTo != "" {
		if *kill {
			return usagef("-kill needs the in-process fleet; it cannot be used with -router")
		}
		addrs, err := parseShardAddrs(*routerTo)
		if err != nil {
			return usagef("-router: %w", err)
		}
		stop, err := sh.debugServer(logger, reg, nil)
		if err != nil {
			return err
		}
		defer stop()
		rcfg := fleet.RouterConfig{Shards: addrs, Metrics: fleet.NewFleetMetrics(reg)}
		if err := campaign(ctx, logger, stdout, dep, rcfg, nil); err != nil {
			return err
		}
		sh.holdOn(ctx, logger)
		return nil
	}

	policy, err := parseSyncPolicy(*fsync)
	if err != nil {
		return usagef("-fsync: %w", err)
	}
	if *kill {
		if *shards < 2 {
			return usagef("-kill needs -shards >= 2, got %d", *shards)
		}
		if policy != homestore.SyncAlways && isSet(fs, "fsync") {
			return usagef("-kill forces -fsync always, got -fsync %s", *fsync)
		}
		policy = homestore.SyncAlways
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
	var liveMetrics *livestats.Metrics
	if *live {
		liveMetrics = livestats.NewMetrics(reg)
		fcfg.Live = &livestats.Config{Seed: sh.seed, Metrics: liveMetrics}
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
		if n := liveMetrics.Reports.Value(); n > 0 {
			logger.Info("live state rebuilt", "reports", n, "homes", len(f.LiveHomes()))
		}
		api = query.New(query.Config{Live: f, Registry: reg}).Handler()
	}
	stop, err := sh.debugServer(logger, reg, api)
	if err != nil {
		return err
	}
	defer stop()

	if !*demo {
		<-ctx.Done()
		logger.Info("shutting down", "shards", *shards)
		printShardStats(stdout, f, *shards)
		return f.Close()
	}
	var victim func(string)
	if *kill {
		victim = func(name string) {
			for i, sa := range f.Addrs() {
				if sa.Name == name {
					f.Kill(i)
				}
			}
		}
	}
	err = campaign(ctx, logger, stdout, dep, fleet.RouterConfig{
		Shards: f.Addrs(), Metrics: metrics, Replay: f.ReplayFunc(),
	}, victim)
	if err != nil {
		return err
	}
	if err := f.Drain(); err != nil {
		return err
	}
	printShardStats(stdout, f, *shards)
	var reconcile *fleet.Fleet
	if *live {
		reconcile = f
	}
	if err := report(stdout, root, cfg, reconcile); err != nil {
		return err
	}
	if *live {
		// The shard trackers share liveMetrics, so its series are fleet
		// sums; a home tracked by two shards (the dead one and its
		// survivor after -kill) is counted once here.
		fmt.Fprintf(stdout, "live analytics: %d homes, %.0f devices, %d reports processed, %d stale rows\n",
			len(f.LiveHomes()), liveMetrics.Devices.Value(), liveMetrics.Reports.Value(), liveMetrics.Stale.Value())
	}
	sh.holdOn(ctx, logger)
	return nil
}

// isSet reports whether the command line set the named flag.
func isSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
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
// a router configured by rcfg and prints the delivery accounting. A
// non-nil kill is handed the name of the shard that owns the first
// gateway 40% through the campaign, and must crash-stop it.
func campaign(ctx context.Context, logger *slogx.Logger, w io.Writer, dep *synth.Deployment,
	rcfg fleet.RouterConfig, kill func(shard string)) error {
	cfg := dep.Config()
	r, err := fleet.NewRouter(rcfg)
	if err != nil {
		return err
	}
	killAt := -1
	if kill != nil {
		killAt = cfg.Minutes() * 2 / 5
	}
	// One emitter per home, held across the whole campaign: Emit turns
	// per-minute traffic into the gateway's cumulative counters.
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
	start := time.Now()
	sent := 0
	for m := 0; m < cfg.Minutes(); m++ {
		if m == killAt {
			victim := r.ShardFor(dep.Home(0).ID)
			fmt.Fprintf(w, "fleet: killing %s at minute %d of %d\n", victim, m, cfg.Minutes())
			kill(victim)
		}
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
	// The routing identity: every report entered the ring exactly once
	// per routing decision, or the accounting is broken.
	if want := int64(sent) + stats.ReplayedReports + stats.ReassignedReports; stats.ReportsRouted != want {
		return fmt.Errorf("accounting mismatch: %d routed != %d sent + %d replayed + %d reassigned",
			stats.ReportsRouted, sent, stats.ReplayedReports, stats.ReassignedReports)
	}
	fmt.Fprintf(w, "accounting: %d routed = %d sent + %d replayed + %d reassigned ✓\n",
		stats.ReportsRouted, sent, stats.ReplayedReports, stats.ReassignedReports)
	return nil
}

// report reads every gateway back from the fleet's live partitions, in
// gateway order, over the synth campaign's grid, and prints its totals
// and the daily motifs (Def. 5) mined over all gateways' observed
// windows, background removed at the paper's cap. Both depend only on
// what the partitions hold. With live non-nil it then reconciles the
// fleet's online answers against the same partitions.
func report(w io.Writer, root string, cfg synth.Config, live *fleet.Fleet) error {
	ctx := context.Background()
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
		g, err := owner[gw].Home(ctx, gw, to)
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
	motifs := motif.Default.Mine(instances)
	fmt.Fprintf(w, "discovered %d daily motifs in %d windows:\n", len(motifs), len(instances))
	for _, m := range motifs {
		fmt.Fprintf(w, "  motif %d: support %d across %d gateways\n", m.ID, m.Support(), len(m.Gateways()))
	}
	if live == nil {
		return nil
	}
	return reconcile(ctx, w, live, owner, gws)
}

// reconcile compares every home's final online snapshot against the
// batch pipeline recomputed over the recovered partitions — the ground
// truth the /live answers claim to track — and prints the worst deltas.
// Divergence beyond the documented tolerances is an error: Pearson is an
// exact accumulator; the rank coefficients carry the reservoir's ±0.15
// beyond RankCap, and the similarity gate — a maximum over all three —
// inherits it (see STREAMING.md).
func reconcile(ctx context.Context, w io.Writer, live *fleet.Fleet, owner map[string]*homestore.Store, gws []string) error {
	var maxPearson, maxRank, maxSim float64
	rows, domMismatches := 0, 0
	for _, gw := range gws {
		off, err := livestats.Offline(ctx, owner[gw], gw, corrsim.Measure{}, dominance.DefaultPhi)
		if err != nil {
			return fmt.Errorf("offline recompute of %s: %w", gw, err)
		}
		snap, ok := live.LiveSnapshot(gw)
		if !ok {
			return fmt.Errorf("%s: in the recovered history but not in any live tracker", gw)
		}
		liveDoms := make(map[string]bool)
		for _, d := range snap.Devices {
			det, found := off.Details[d.Device.MAC]
			if !found {
				return fmt.Errorf("%s/%s: live device unknown to the batch pipeline", gw, d.Device.MAC)
			}
			rows++
			maxPearson = math.Max(maxPearson, coeffDelta(d.Pearson.Coeff, det.Pearson.Coeff))
			maxRank = math.Max(maxRank, coeffDelta(d.Spearman.Coeff, det.Spearman.Coeff))
			maxRank = math.Max(maxRank, coeffDelta(d.Kendall.Coeff, det.Kendall.Coeff))
			maxSim = math.Max(maxSim, coeffDelta(d.Similarity, det.Similarity))
			if d.Dominant {
				liveDoms[d.Device.MAC] = true
			}
		}
		same := len(liveDoms) == len(off.Dominance.Dominants)
		for _, sc := range off.Dominance.Dominants {
			same = same && liveDoms[sc.Device.MAC]
		}
		if !same {
			domMismatches++
		}
	}
	fmt.Fprintf(w, "live reconcile: %d homes, %d device rows against the recovered partitions\n", len(gws), rows)
	fmt.Fprintf(w, "  max |Δ| online vs offline: pearson %.2e, rank %.3f, similarity %.2e\n", maxPearson, maxRank, maxSim)
	fmt.Fprintf(w, "  dominant-set mismatches: %d\n", domMismatches)
	if maxPearson > 1e-6 {
		return fmt.Errorf("exact pearson accumulator diverged: %v", maxPearson)
	}
	if maxRank > 0.15 || maxSim > 0.15 {
		return fmt.Errorf("beyond the documented ±0.15 sketch tolerance: rank %v, similarity %v", maxRank, maxSim)
	}
	fmt.Fprintln(w, "  within documented tolerances ✓")
	return nil
}

// coeffDelta is |a-b| with the NaN/NaN degenerate case (both pipelines
// agreeing a coefficient is undefined) counted as zero divergence.
func coeffDelta(a, b float64) float64 {
	if math.IsNaN(a) && math.IsNaN(b) {
		return 0
	}
	return math.Abs(a - b)
}
