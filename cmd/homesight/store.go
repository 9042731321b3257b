package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"time"

	"homesight/internal/obs"
	"homesight/internal/obs/slogx"
	"homesight/internal/query"
	homestore "homesight/internal/store"
)

const storeUsage = `usage: homesight store <command> -dir <store-dir> [flags]

commands:
  inspect   print campaign meta, store stats, gateways and segments (-json)
  verify    re-read and checksum every block; non-zero exit on corruption
  compact   merge all segments into a single segment
  serve     serve the HTTP query API plus /metrics and pprof (-addr)`

// runStore is the operator tool for one homestore partition
// (internal/store, STORAGE.md): the on-disk format the collector writes
// under -data-dir and experiments read with -data-dir. storeUsage lists
// its commands. Every command opens an existing partition (a -dir that
// holds none is an error) through the normal recovery path, so a torn WAL
// tail is repaired as the collector would on restart. serve mounts the
// internal/query API (/api/v1/...) on the observability server, so one
// port exposes the JSON read API, metrics and pprof until ctx ends.
func runStore(ctx context.Context, args []string, stdout io.Writer) (err error) {
	if len(args) == 0 {
		return usageError{errors.New(storeUsage)}
	}
	cmd, args := args[0], args[1:]
	fs := flag.NewFlagSet("store "+cmd, flag.ContinueOnError)
	dir := fs.String("dir", "", "store data directory")
	asJSON := fs.Bool("json", false, "inspect: emit machine-readable JSON")
	addr := fs.String("addr", "127.0.0.1:0", "serve: listen address for the query/metrics server")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	switch {
	case cmd != "inspect" && cmd != "verify" && cmd != "compact" && cmd != "serve":
		return usagef("unknown store command %q\n%s", cmd, storeUsage)
	case *dir == "":
		return usagef("store %s: -dir is required", cmd)
	}

	if err := homestore.CheckPartition(*dir); err != nil {
		return err
	}
	// serve shares one registry between the store and the query tier, so
	// /metrics exposes homesight_store_* and homesight_query_* together.
	cfg := homestore.Config{Dir: *dir}
	var reg *obs.Registry
	if cmd == "serve" {
		reg = obs.NewRegistry()
		cfg.Metrics = homestore.NewMetrics(reg)
	}
	s, err := homestore.Open(cfg)
	if err != nil {
		return fmt.Errorf("open %s: %w", *dir, err)
	}
	defer func() {
		if cerr := s.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("close %s: %w", *dir, cerr)
		}
	}()

	switch cmd {
	case "inspect":
		return inspect(stdout, s, *asJSON)
	case "verify":
		if err := s.Verify(); err != nil {
			return fmt.Errorf("verify %s: %w", *dir, err)
		}
		st := s.Stats()
		fmt.Fprintf(stdout, "ok: %d segments, %d segment points, %d series, %d WAL records intact\n",
			st.Segments, st.SegmentPoints, st.Series, st.WALRecords)
	case "compact":
		before := s.Stats()
		if err := s.Compact(); err != nil {
			return fmt.Errorf("compact %s: %w", *dir, err)
		}
		after := s.Stats()
		fmt.Fprintf(stdout, "compacted %d segments (%d bytes) into %d (%d bytes), %d points, %.2fx compression\n",
			before.Segments, before.SegmentBytes, after.Segments, after.SegmentBytes,
			after.SegmentPoints, after.Compression)
	case "serve":
		logger := slogx.With("component", "homestore")
		api := query.New(query.Config{Store: s, Registry: reg})
		srv, err := obs.NewServer(*addr, reg, obs.WithHandler("/api/v1/", api.Handler()))
		if err != nil {
			return fmt.Errorf("serve on %s: %w", *addr, err)
		}
		defer func() { _ = srv.Close() }()
		logger.Info("query server listening", "addr", srv.Addr())
		<-ctx.Done()
		logger.Info("shutting down")
	}
	return nil
}

// inspectReport is the -json shape; the human rendering prints the same
// fields.
type inspectReport struct {
	Start    time.Time               `json:"start"`
	Step     string                  `json:"step"`
	Stats    homestore.Stats         `json:"stats"`
	Gateways []inspectGateway        `json:"gateways"`
	Segments []homestore.SegmentInfo `json:"segments"`
}

type inspectGateway struct {
	ID      string `json:"id"`
	Devices int    `json:"devices"`
}

func inspect(w io.Writer, s *homestore.Store, asJSON bool) error {
	rep := inspectReport{
		Start:    s.Start(),
		Step:     s.Step().String(),
		Stats:    s.Stats(),
		Segments: s.SegmentInfos(),
	}
	for _, gw := range s.Gateways() {
		rep.Gateways = append(rep.Gateways, inspectGateway{ID: gw, Devices: len(s.Devices(gw))})
	}
	if asJSON {
		// The same versioned envelope the HTTP API speaks, so scripted
		// consumers parse one shape regardless of transport.
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(query.Wrap(rep))
	}
	st := rep.Stats
	fmt.Fprintf(w, "campaign: start %s, step %s\n", rep.Start.Format(time.RFC3339), rep.Step)
	fmt.Fprintf(w, "points:   %d total (%d in segments, %d in memtable/WAL), %d series, %d duplicates dropped\n",
		st.Points, st.SegmentPoints, st.MemPoints, st.Series, st.DupPoints)
	fmt.Fprintf(w, "wal:      %d records replayed, %d bytes active, %d torn tails truncated\n",
		st.WALRecords, st.WALBytes, st.WALTruncations)
	if st.Compression > 0 {
		fmt.Fprintf(w, "segments: %d (%d bytes, %.2fx compression vs raw 16-byte points)\n",
			st.Segments, st.SegmentBytes, st.Compression)
	} else {
		fmt.Fprintf(w, "segments: %d\n", st.Segments)
	}
	for _, si := range rep.Segments {
		fmt.Fprintf(w, "  seq %d: %d series, %d points, %d bytes, [%s, %s]\n",
			si.Seq, si.Series, si.Points, si.Bytes,
			time.Unix(si.MinTs, 0).UTC().Format(time.RFC3339),
			time.Unix(si.MaxTs, 0).UTC().Format(time.RFC3339))
	}
	fmt.Fprintf(w, "gateways: %d\n", len(rep.Gateways))
	for _, gw := range rep.Gateways {
		fmt.Fprintf(w, "  %s: %d devices\n", gw.ID, gw.Devices)
	}
	return nil
}
