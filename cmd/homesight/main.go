// Command homesight runs the paper's analyses over a synthetic deployment
// (or a single gateway CSV exported by homesim) and prints the results.
//
// Usage:
//
//	homesight <subcommand> [flags]
//
// Subcommands:
//
//	dominants   φ-dominant devices per gateway (Def. 4)
//	motifs      weekly and daily motif discovery (Def. 5)
//	aggregate   best aggregation-granularity curves (Def. 3)
//	stationary  strong-stationarity census (Def. 2)
//	background  background-traffic thresholds per device (Sec. 6.1)
//	similarity  correlation similarity between two gateways (Def. 1)
//
// -debug-addr serves live observability (Prometheus /metrics, /healthz,
// /debug/pprof) while the analysis runs. See OBSERVABILITY.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"homesight/internal/background"
	"homesight/internal/core"
	"homesight/internal/dataset"
	"homesight/internal/dominance"
	"homesight/internal/experiments"
	"homesight/internal/obs"
	"homesight/internal/obs/slogx"
	"homesight/internal/report"
)

// logger stamps every event from this binary; subcommand helpers share it.
var logger = slogx.With("component", "homesight")

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]

	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	homes := fs.Int("homes", 60, "number of gateways to simulate")
	weeks := fs.Int("weeks", 6, "campaign length in weeks")
	seed := fs.Int64("seed", 0, "master seed (default 20140317)")
	parallel := fs.Int("parallel", runtime.NumCPU(), "worker count for per-gateway fan-out")
	gatewayID := fs.String("gw", "", "restrict output to one gateway id")
	dataDir := fs.String("data", "", "analyze a homesim export instead of simulating")
	debugAddr := fs.String("debug-addr", "",
		"serve /metrics, /healthz and /debug/pprof on this address (empty = off)")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn, error")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	if lvl, err := slogx.ParseLevel(*logLevel); err != nil {
		logger.Fatal("bad flag", "flag", "log-level", "err", err)
	} else {
		slogx.SetLevel(lvl)
	}

	reg := obs.NewRegistry()
	if *debugAddr != "" {
		srv, err := obs.NewServer(*debugAddr, reg)
		if err != nil {
			logger.Fatal("debug server failed", "addr", *debugAddr, "err", err)
		}
		defer func() { _ = srv.Close() }()
		logger.Info("debug server listening", "addr", srv.Addr())
	}

	if *dataDir != "" {
		runFromData(cmd, *dataDir, *gatewayID)
		return
	}

	opts := []experiments.Option{
		experiments.WithHomes(*homes),
		experiments.WithWeeks(*weeks),
		experiments.WithParallelism(*parallel),
		experiments.WithRegistry(reg),
	}
	if *seed != 0 {
		opts = append(opts, experiments.WithSeed(*seed))
	}
	env, err := experiments.NewEnv(opts...)
	if err != nil {
		logger.Fatal("env setup failed", "err", err)
	}

	switch cmd {
	case "dominants":
		runDominants(env, *gatewayID)
	case "motifs":
		runMotifs(env)
	case "aggregate":
		runAggregate(env)
	case "stationary":
		runStationary(env)
	case "background":
		runBackground(env)
	case "similarity":
		runSimilarity(env, fs.Args())
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: homesight <subcommand> [flags]

subcommands:
  dominants    dominant devices per gateway (Definition 4)
  motifs       weekly and daily motifs (Definition 5)
  aggregate    aggregation curves and best binning (Definition 3)
  stationary   strong stationarity census (Definition 2)
  background   background thresholds per device (Sec 6.1)
  similarity   correlation similarity of two gateways (Definition 1)

common flags: -homes N -weeks N -seed N -gw gwNNN
data mode:    -data DIR analyzes a homesim export (dominants, background)`)
}

// runFromData analyzes gateways loaded from a homesim export.
func runFromData(cmd, dir, only string) {
	man, gateways, err := dataset.LoadDir(dir)
	if err != nil {
		logger.Fatal("load failed", "dir", dir, "err", err)
	}
	logger.Info("loaded export", "gateways", len(gateways),
		"weeks", man.Config.Weeks, "start", man.Config.Start.Format("2006-01-02"))
	switch cmd {
	case "dominants":
		det := core.Default.Detector()
		t := report.NewTable("Dominant devices (φ=0.6)", "gateway", "rank", "device", "type", "similarity")
		for _, g := range gateways {
			if only != "" && g.ID != only {
				continue
			}
			var devs []dominance.DeviceSeries
			for _, dr := range g.Devices {
				devs = append(devs, dominance.DeviceSeries{Device: dr.Device, Series: dr.Overall()})
			}
			out := det.Detect(g.Overall, devs)
			for rank, sc := range out.Dominants {
				t.AddRow(g.ID, rank+1, sc.Device.Name, string(sc.Device.Inferred), sc.Similarity)
			}
		}
		fmt.Print(t.String())
	case "background":
		t := report.NewTable("Background thresholds", "gateway", "device", "type", "tau in", "tau out", "group")
		for _, g := range gateways {
			if only != "" && g.ID != only {
				continue
			}
			for _, dr := range g.Devices {
				th := background.EstimateThreshold(dr.In, dr.Out)
				grp := background.GroupOf(math.Max(th.TauIn, th.TauOut))
				t.AddRow(g.ID, dr.Device.Name, string(dr.Device.Inferred), th.TauIn, th.TauOut, string(grp))
			}
		}
		fmt.Print(t.String())
	default:
		logger.Fatal("data mode supports only dominants and background", "subcommand", cmd)
	}
}

func runDominants(env *experiments.Env, only string) {
	res, err := experiments.Fig05DominantDevices(context.Background(), env)
	if err != nil {
		logger.Fatal("dominants failed", "err", err)
	}
	fmt.Print(res)
	if only != "" {
		printGatewayDominants(env, only)
	}
}

func printGatewayDominants(env *experiments.Env, id string) {
	for i := 0; i < env.Dep.NumHomes(); i++ {
		h := env.Home(i)
		if h.ID != id {
			continue
		}
		var devs []dominance.DeviceSeries
		for _, dt := range h.Traffic() {
			devs = append(devs, dominance.DeviceSeries{Device: dt.Spec.Device, Series: dt.Overall()})
		}
		out := env.Framework.Detector().Detect(h.Overall(), devs)
		t := report.NewTable("Gateway "+id, "rank", "device", "type", "similarity", "traffic")
		for r, sc := range out.Dominants {
			t.AddRow(r+1, sc.Device.Name, string(sc.Device.Inferred), sc.Similarity, sc.Traffic)
		}
		fmt.Print(t.String())
		return
	}
	logger.Fatal("gateway not found", "gw", id)
}

func runMotifs(env *experiments.Env) {
	weekly, err := experiments.MineWeeklyMotifs(context.Background(), env)
	if err != nil {
		logger.Fatal("weekly motifs failed", "err", err)
	}
	fmt.Print(weekly)
	fmt.Print(experiments.RenderProfiles("Weekly motifs of interest (Fig 11)",
		experiments.WeeklyMotifsOfInterest(weekly)))

	daily, err := experiments.MineDailyMotifs(context.Background(), env)
	if err != nil {
		logger.Fatal("daily motifs failed", "err", err)
	}
	fmt.Print(daily)
	fmt.Print(experiments.RenderProfiles("Daily motifs of interest (Fig 14)",
		experiments.DailyMotifsOfInterest(daily)))
}

func runAggregate(env *experiments.Env) {
	w, err := experiments.Fig06WeeklyAggregation(context.Background(), env)
	if err != nil {
		logger.Fatal("weekly aggregation failed", "err", err)
	}
	fmt.Print(w)
	d, err := experiments.Fig08DailyAggregation(context.Background(), env)
	if err != nil {
		logger.Fatal("daily aggregation failed", "err", err)
	}
	fmt.Print(d)
}

func runStationary(env *experiments.Env) {
	share, err := experiments.TabStationaryShare(context.Background(), env)
	if err != nil {
		logger.Fatal("stationary share failed", "err", err)
	}
	fmt.Print(share)
	f7, err := experiments.Fig07StationaryGateways(context.Background(), env)
	if err != nil {
		logger.Fatal("stationary gateways failed", "err", err)
	}
	fmt.Print(f7)
}

func runBackground(env *experiments.Env) {
	res, err := experiments.Fig04BackgroundTau(context.Background(), env)
	if err != nil {
		logger.Fatal("background thresholds failed", "err", err)
	}
	fmt.Print(res)
}

func runSimilarity(env *experiments.Env, ids []string) {
	if len(ids) != 2 {
		logger.Fatal("similarity needs two gateway ids", "example", "gw001 gw002")
	}
	var series [][]float64
	for _, id := range ids {
		found := false
		for i := 0; i < env.Dep.NumHomes(); i++ {
			h := env.Home(i)
			if h.ID != id {
				continue
			}
			agg, err := h.Overall().FillMissing(0).Aggregate(3 * time.Hour)
			if err != nil {
				logger.Fatal("aggregation failed", "gw", id, "err", err)
			}
			series = append(series, agg.Values)
			found = true
			break
		}
		if !found {
			logger.Fatal("gateway not found", "gw", id)
		}
	}
	sim := env.Framework.Similarity(series[0], series[1])
	fmt.Printf("cor(%s, %s) = %.3f  (distance %.3f)\n", ids[0], ids[1], sim, 1-sim)
}
