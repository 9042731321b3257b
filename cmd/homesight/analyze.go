package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"time"

	"homesight/internal/background"
	"homesight/internal/corrsim"
	"homesight/internal/dataset"
	"homesight/internal/dominance"
	"homesight/internal/obs/slogx"
	table "homesight/internal/report"
	"homesight/internal/synth"
)

// runDominants prints the φ-dominant devices (Def. 4) of every gateway
// of a CSV export (`homesight simulate -out`, `homesight store export`).
func runDominants(_ context.Context, args []string, stdout io.Writer) error {
	gateways, err := loadExport("dominants", args)
	if err != nil {
		return err
	}
	det := dominance.Default
	t := table.NewTable("Dominant devices (φ=0.6)", "gateway", "rank", "device", "type", "similarity")
	for _, g := range gateways {
		var devs []dominance.DeviceSeries
		for _, dr := range g.Devices {
			devs = append(devs, dominance.DeviceSeries{Device: dr.Device, Series: dr.Overall()})
		}
		out := det.Detect(g.Overall, devs)
		for rank, sc := range out.Dominants {
			t.AddRow(g.ID, rank+1, sc.Device.Name, string(sc.Device.Inferred), sc.Similarity)
		}
	}
	_, err = io.WriteString(stdout, t.String())
	return err
}

// runBackground prints the background-traffic thresholds (Sec. 6.1) of
// every device of a CSV export.
func runBackground(_ context.Context, args []string, stdout io.Writer) error {
	gateways, err := loadExport("background", args)
	if err != nil {
		return err
	}
	t := table.NewTable("Background thresholds", "gateway", "device", "type", "tau in", "tau out", "group")
	for _, g := range gateways {
		for _, dr := range g.Devices {
			th := background.EstimateThreshold(dr.In, dr.Out)
			grp := background.GroupOf(math.Max(th.TauIn, th.TauOut))
			t.AddRow(g.ID, dr.Device.Name, string(dr.Device.Inferred), th.TauIn, th.TauOut, string(grp))
		}
	}
	_, err = io.WriteString(stdout, t.String())
	return err
}

// loadExport parses -data and -gw and loads the export's gateways, only
// the -gw one when it is set.
func loadExport(name string, args []string) ([]*dataset.Gateway, error) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	dir := fs.String("data", "", "CSV export to analyze (homesight simulate -out, homesight store export)")
	only := fs.String("gw", "", "restrict output to one gateway id")
	if err := parseFlags(fs, args); err != nil {
		return nil, err
	}
	if *dir == "" {
		return nil, usagef("%s: -data is required", name)
	}
	man, gateways, err := dataset.LoadDir(*dir)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", *dir, err)
	}
	slogx.With("component", "homesight").Info("loaded export", "gateways", len(gateways),
		"weeks", man.Config.Weeks, "start", man.Config.Start.Format("2006-01-02"))
	if *only == "" {
		return gateways, nil
	}
	for _, g := range gateways {
		if g.ID == *only {
			return []*dataset.Gateway{g}, nil
		}
	}
	return nil, nil
}

// runSimilarity prints the correlation similarity (Def. 1) of two
// synthetic gateways' traffic at 3-hour bins:
//
//	homesight similarity [-homes 60 -weeks 6 -seed N] gw001 gw002
func runSimilarity(_ context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("similarity", flag.ContinueOnError)
	sh := sharedFlags(fs, 60, 6, false)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	ids := fs.Args()
	if len(ids) != 2 {
		return usagef("similarity needs two gateway ids, e.g. gw001 gw002")
	}
	dep := synth.NewDeployment(synth.Config{Homes: sh.homes, Weeks: sh.weeks, Seed: sh.seed})
	var series [][]float64
	for k, id := range ids {
		for i := 0; i < dep.NumHomes() && len(series) == k; i++ {
			if h := dep.Home(i); h.ID == id {
				agg, err := h.Overall().FillMissing(0).Aggregate(3 * time.Hour)
				if err != nil {
					return fmt.Errorf("aggregating %s: %w", id, err)
				}
				series = append(series, agg.Values)
			}
		}
		if len(series) == k {
			return fmt.Errorf("gateway %s not found", id)
		}
	}
	sim := corrsim.Cor(series[0], series[1])
	fmt.Fprintf(stdout, "cor(%s, %s) = %.3f  (distance %.3f)\n", ids[0], ids[1], sim, 1-sim)
	return nil
}
