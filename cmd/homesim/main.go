// Command homesim generates a synthetic residential-gateway deployment and
// writes it to disk as per-gateway CSV files plus a deployment manifest.
//
// Usage:
//
//	homesim -out data/ [-homes 196] [-weeks 8] [-seed 20140317] [-survey]
//	homesim -fleet 4 [-fleet-kill] -out data/ [-homes 32] [-weeks 1]
//
// Each gateway becomes <out>/<id>.csv in the dataset package's schema; the
// manifest (<out>/deployment.json) records the configuration and per-home
// ground truth (archetype, residents, reliability) for evaluation.
//
// -fleet N runs the sharded-ingest load campaign instead: the
// deployment streams through a consistent-hash router into N in-process
// shards whose partitions land under <out>/fleet/shard-NNNN/, and the
// aggregate throughput and delivery accounting are printed. -fleet-kill
// crash-stops one shard mid-campaign to demonstrate the rebalance +
// catch-up-replay protocol (see FLEET.md); the accounting printed at
// the end must still reconcile exactly.
//
// -live adds a livestats tracker to every shard, polls the fleet's
// live view mid-campaign (the same snapshots cmd/collector serves as
// /api/v1/homes/{gw}/live) and, after the drain, reconciles every
// home's online answer against the batch pipeline recomputed over the
// recovered partitions, printing the online-vs-offline deltas. Exceeding
// the documented tolerances (STREAMING.md) is an error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"homesight/internal/corrsim"
	"homesight/internal/dataset"
	"homesight/internal/dominance"
	"homesight/internal/fleet"
	"homesight/internal/gateway"
	"homesight/internal/livestats"
	"homesight/internal/obs"
	"homesight/internal/obs/slogx"
	"homesight/internal/store"
	"homesight/internal/synth"
)

// manifest is the deployment-level ground truth written next to the CSVs.
type manifest struct {
	Config synth.Config   `json:"config"`
	Homes  []manifestHome `json:"homes"`
}

type manifestHome struct {
	ID          string `json:"id"`
	Archetype   string `json:"archetype"`
	Residents   int    `json:"residents"`
	Reliability string `json:"reliability"`
	Fiber       bool   `json:"fiber"`
	Devices     int    `json:"devices"`
}

func main() {
	logger := slogx.With("component", "homesim")

	out := flag.String("out", "data", "output directory")
	homes := flag.Int("homes", 0, "number of gateways (default 196)")
	weeks := flag.Int("weeks", 0, "campaign length in weeks (default 8)")
	seed := flag.Int64("seed", 0, "master seed (default 20140317)")
	survey := flag.Bool("survey", false, "include resident counts for the survey subset")
	fleetN := flag.Int("fleet", 0, "run the sharded-ingest load campaign with this many shards instead of writing CSVs")
	fleetKill := flag.Bool("fleet-kill", false, "fleet campaign: crash-stop one shard mid-load to exercise rebalance + replay")
	liveStats := flag.Bool("live", false, "fleet campaign: run per-shard live analytics, poll them mid-load and reconcile against the batch pipeline")
	quiet := flag.Bool("q", false, "suppress progress output")
	flag.Parse()

	cfg := synth.Config{Homes: *homes, Weeks: *weeks, Seed: *seed}
	dep := synth.NewDeployment(cfg)
	cfg = dep.Config()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		logger.Fatal("mkdir failed", "dir", *out, "err", err)
	}

	if *fleetN > 0 {
		if err := runFleetCampaign(dep, *fleetN, filepath.Join(*out, "fleet"), *fleetKill, *liveStats); err != nil {
			logger.Fatal("fleet campaign failed", "err", err)
		}
		return
	}

	man := manifest{Config: cfg}
	for i := 0; i < dep.NumHomes(); i++ {
		h := dep.Home(i)
		g := dataset.FromSynthHome(h, 0, *survey && i < 49)
		path := filepath.Join(*out, h.ID+".csv")
		if err := writeGateway(path, g); err != nil {
			logger.Fatal("gateway write failed", "path", path, "err", err)
		}
		man.Homes = append(man.Homes, manifestHome{
			ID:          h.ID,
			Archetype:   string(h.Archetype),
			Residents:   h.Residents,
			Reliability: string(h.Reliability),
			Fiber:       h.Fiber,
			Devices:     len(h.Devices),
		})
		if !*quiet && (i+1)%20 == 0 {
			logger.Info("progress", "written", i+1, "total", dep.NumHomes())
		}
	}

	manPath := filepath.Join(*out, "deployment.json")
	f, err := os.Create(manPath)
	if err != nil {
		logger.Fatal("manifest create failed", "path", manPath, "err", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(man); err != nil {
		logger.Fatal("manifest encode failed", "path", manPath, "err", err)
	}
	if err := f.Close(); err != nil {
		logger.Fatal("manifest close failed", "path", manPath, "err", err)
	}
	if !*quiet {
		fmt.Printf("wrote %d gateways and %s\n", dep.NumHomes(), manPath)
	}
}

// runFleetCampaign streams the deployment minute-major through a
// router into n in-process shards under dir. With kill set, the shard
// owning the first gateway is crash-stopped 40% through the campaign;
// the router's rebalance + catch-up replay must absorb the loss, and
// the printed accounting reconciles Sends, replays and reassignments
// exactly (the TestFaultShardKill identity).
func runFleetCampaign(dep *synth.Deployment, n int, dir string, kill, live bool) error {
	cfg := dep.Config()
	metrics := fleet.NewFleetMetrics(obs.NewRegistry())
	fcfg := fleet.Config{
		Dir: dir, Shards: n,
		Start: cfg.Start, Step: time.Minute,
		Sync:    store.SyncAlways, // acked ⇒ durable, the kill drill's premise
		Metrics: metrics,
	}
	if live {
		fcfg.Live = &livestats.Config{}
	}
	f, err := fleet.Start(fcfg)
	if err != nil {
		return err
	}
	r, err := fleet.NewRouter(fleet.RouterConfig{
		Shards: f.Addrs(), Metrics: metrics, Replay: f.ReplayFunc(),
	})
	if err != nil {
		return err
	}
	victim := -1
	killAt := -1
	if kill {
		victimName := r.ShardFor(dep.Home(0).ID)
		if _, err := fmt.Sscanf(victimName, "shard-%d", &victim); err != nil {
			return fmt.Errorf("bad shard name %q", victimName)
		}
		killAt = cfg.Minutes() * 2 / 5
	}
	// One emitter per home, held across the whole campaign: Emit turns
	// per-minute traffic into the gateway's cumulative counters, so the
	// emitter's state must span minutes.
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
	// With -live the fleet view is polled at quarter marks — the same
	// lookup the /live endpoint performs, here hitting the trackers
	// directly since the shards are in-process.
	pollAt := cfg.Minutes() / 4
	if pollAt == 0 {
		pollAt = 1
	}
	for m := 0; m < cfg.Minutes(); m++ {
		if m == killAt {
			fmt.Printf("fleet: killing shard-%04d at minute %d of %d\n", victim, m, cfg.Minutes())
			f.Kill(victim)
		}
		if live && m > 0 && m%pollAt == 0 {
			gw := dep.Home(0).ID
			if snap, ok := f.LiveSnapshot(gw); ok {
				fmt.Printf("live: minute %d %s: %d reports, %d devices, %d dominants\n",
					m, gw, snap.Reports, len(snap.Devices), len(snap.Dominance().Dominants))
			} else {
				fmt.Printf("live: minute %d %s: no snapshot yet\n", m, gw)
			}
		}
		for i := range emits {
			rep := emits[i](m)
			if len(rep.Devices) == 0 {
				continue
			}
			if err := r.Send(ctx, rep); err != nil {
				return fmt.Errorf("minute %d gateway %s: %w", m, rep.GatewayID, err)
			}
			sent++
		}
	}
	if err := r.Flush(ctx); err != nil {
		return err
	}
	stats := r.Stats()
	elapsed := time.Since(start)
	if err := r.Close(); err != nil {
		return err
	}
	if err := f.Drain(); err != nil {
		return err
	}
	fmt.Printf("fleet: routed %d reports in %s (%.0f reports/s) across %d shards (%d live)\n",
		sent, elapsed.Round(time.Millisecond), float64(sent)/elapsed.Seconds(), n, len(r.Live()))
	fmt.Printf("router: %d batches flushed, %d rebalances, %d replayed, %d reassigned\n",
		stats.BatchesFlushed, stats.Rebalances, stats.ReplayedReports, stats.ReassignedReports)
	for i := 0; i < n; i++ {
		s := f.Shard(i)
		st := s.Stats()
		ss := s.StoreStats()
		fmt.Printf("  %s  reports=%d points=%d dups=%d frames=%d conns=%d\n",
			s.Name(), st.ReportsAppended, ss.Points, ss.DupPoints, st.FramesDecoded, st.ConnsOpened)
	}
	// The routing identity: every report entered the ring exactly once
	// per routing decision, or the accounting is broken.
	if want := int64(sent) + stats.ReplayedReports + stats.ReassignedReports; stats.ReportsRouted != want {
		return fmt.Errorf("accounting mismatch: %d routed != %d sent + %d replayed + %d reassigned",
			stats.ReportsRouted, sent, stats.ReplayedReports, stats.ReassignedReports)
	}
	fmt.Printf("accounting: %d routed = %d sent + %d replayed + %d reassigned ✓\n",
		stats.ReportsRouted, sent, stats.ReplayedReports, stats.ReassignedReports)
	if live {
		return reconcileLive(f, dir)
	}
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

// reconcileLive compares every home's final online snapshot against the
// batch pipeline recomputed over the recovered partitions — the ground
// truth the /live answers claim to track — and prints the worst deltas.
// Divergence beyond the documented tolerances (Pearson is an exact
// accumulator; the rank coefficients carry the reservoir's ±0.15
// beyond RankCap, and the similarity gate — a maximum over all three —
// inherits it; see STREAMING.md) is an error, so a -fleet-kill -live
// run doubles as a reconciliation drill from the command line.
func reconcileLive(f *fleet.Fleet, dir string) error {
	ctx := context.Background()
	dirs, err := fleet.LivePartitions(dir)
	if err != nil {
		return err
	}
	offline := make(map[string]*livestats.OfflineHome)
	for _, d := range dirs {
		st, err := store.Open(store.Config{Dir: d})
		if err != nil {
			return fmt.Errorf("reopening partition %s: %w", d, err)
		}
		for _, gw := range st.Gateways() {
			off, err := livestats.Offline(ctx, st, gw, corrsim.Measure{}, dominance.DefaultPhi)
			if err != nil {
				_ = st.Close()
				return fmt.Errorf("offline recompute of %s: %w", gw, err)
			}
			offline[gw] = off
		}
		if err := st.Close(); err != nil {
			return err
		}
	}
	gws := make([]string, 0, len(offline))
	for gw := range offline {
		gws = append(gws, gw)
	}
	sort.Strings(gws)
	var maxPearson, maxRank, maxSim float64
	rows, domMismatches := 0, 0
	for _, gw := range gws {
		snap, ok := f.LiveSnapshot(gw)
		if !ok {
			return fmt.Errorf("%s: in the recovered history but not in any live tracker", gw)
		}
		off := offline[gw]
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
		offDoms := make(map[string]bool)
		for _, sc := range off.Dominance.Dominants {
			offDoms[sc.Device.MAC] = true
		}
		if len(liveDoms) != len(offDoms) {
			domMismatches++
		} else {
			for mac := range offDoms {
				if !liveDoms[mac] {
					domMismatches++
					break
				}
			}
		}
	}
	fmt.Printf("live reconcile: %d homes, %d device rows against the recovered partitions\n", len(gws), rows)
	fmt.Printf("  max |Δ| online vs offline: pearson %.2e, rank %.3f, similarity %.2e\n", maxPearson, maxRank, maxSim)
	fmt.Printf("  dominant-set mismatches: %d\n", domMismatches)
	if maxPearson > 1e-6 {
		return fmt.Errorf("exact pearson accumulator diverged: %v", maxPearson)
	}
	if maxRank > 0.15 || maxSim > 0.15 {
		return fmt.Errorf("beyond the documented ±0.15 sketch tolerance: rank %v, similarity %v", maxRank, maxSim)
	}
	fmt.Println("  within documented tolerances ✓")
	return nil
}

func writeGateway(path string, g *dataset.Gateway) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := dataset.WriteCSV(f, g); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
