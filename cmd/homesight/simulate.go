package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"homesight/internal/dataset"
	"homesight/internal/obs/slogx"
	"homesight/internal/synth"
)

// runSimulate generates a synthetic residential-gateway deployment and
// writes it to disk as per-gateway CSV files plus a deployment manifest.
//
//	homesight simulate -out data/ [-homes 196] [-weeks 8] [-seed 20140317] [-survey]
//
// Each gateway becomes <out>/<id>.csv in the dataset package's schema; the
// manifest (<out>/deployment.json) records the configuration and per-home
// ground truth (archetype, residents, reliability) for evaluation. The
// export is what `homesight dominants -data` and `background -data` read.
func runSimulate(_ context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	sh := sharedFlags(fs, 196, 8, false)
	out := fs.String("out", "data", "output directory")
	survey := fs.Bool("survey", false, "include resident counts for the survey subset")
	quiet := fs.Bool("q", false, "suppress progress output")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	logger := slogx.With("component", "simulate")

	dep := synth.NewDeployment(synth.Config{Homes: sh.homes, Weeks: sh.weeks, Seed: sh.seed})
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	var man dataset.Manifest
	cfg := dep.Config()
	man.Config.Seed, man.Config.Homes, man.Config.Start, man.Config.Weeks = cfg.Seed, cfg.Homes, cfg.Start, cfg.Weeks
	for i := 0; i < dep.NumHomes(); i++ {
		h := dep.Home(i)
		g := dataset.FromSynthHome(h, 0, *survey && i < 49)
		path := filepath.Join(*out, h.ID+".csv")
		if err := writeGateway(path, g); err != nil {
			return fmt.Errorf("gateway write %s: %w", path, err)
		}
		man.Homes = append(man.Homes, dataset.ManifestHome{
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

	raw, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		return err
	}
	manPath := filepath.Join(*out, "deployment.json")
	if err := os.WriteFile(manPath, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	if !*quiet {
		fmt.Fprintf(stdout, "wrote %d gateways and %s\n", dep.NumHomes(), manPath)
	}
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
