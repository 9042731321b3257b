// Command homestore is the operator tool for homestore data directories
// (internal/store, STORAGE.md): the on-disk format the collector writes
// with -data-dir and the experiment runners read with -data-dir.
//
// Usage:
//
//	homestore inspect -dir DIR [-json]   # meta, stats, gateways, segments
//	homestore verify  -dir DIR           # checksum every block, check ordering
//	homestore compact -dir DIR           # merge all segments into one
//	homestore export  -dir DIR -out OUT  # write the dataset CSV bundle
//	homestore serve   -dir DIR -addr A   # HTTP query API + /metrics + pprof
//
// Every subcommand opens the store through the normal recovery path, so
// a torn WAL tail is repaired exactly as the collector would repair it
// on restart. `serve` mounts the internal/query API (/api/v1/...) on the
// observability server, so one port exposes the versioned JSON read API,
// Prometheus-format metrics and pprof together.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"homesight/internal/obs"
	"homesight/internal/obs/slogx"
	"homesight/internal/query"
	homestore "homesight/internal/store"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: homestore <command> -dir <store-dir> [flags]

commands:
  inspect   print campaign meta, store stats, gateways and segments
  verify    re-read and checksum every block; non-zero exit on corruption
  compact   merge all segments into a single segment
  export    write the store as a dataset CSV bundle (-out required)
  serve     serve the HTTP query API plus /metrics and pprof (-addr)
`)
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	fs := flag.NewFlagSet("homestore "+cmd, flag.ExitOnError)
	dir := fs.String("dir", "", "store data directory")
	asJSON := fs.Bool("json", false, "inspect: emit machine-readable JSON")
	out := fs.String("out", "", "export: destination directory for the CSV bundle")
	addr := fs.String("addr", "127.0.0.1:0", "serve: listen address for the query/metrics server")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "homestore: -dir is required")
		usage()
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
		fatal("open %s: %v", *dir, err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			fatal("close: %v", err)
		}
	}()

	switch cmd {
	case "inspect":
		inspect(s, *asJSON)
	case "verify":
		if err := s.Verify(); err != nil {
			fatal("verify %s: %v", *dir, err)
		}
		st := s.Stats()
		fmt.Printf("ok: %d segments, %d segment points, %d series, %d WAL records intact\n",
			st.Segments, st.SegmentPoints, st.Series, st.WALRecords)
	case "compact":
		before := s.Stats()
		if err := s.Compact(); err != nil {
			fatal("compact %s: %v", *dir, err)
		}
		after := s.Stats()
		fmt.Printf("compacted %d segments (%d bytes) into %d (%d bytes), %d points, %.2fx compression\n",
			before.Segments, before.SegmentBytes, after.Segments, after.SegmentBytes,
			after.SegmentPoints, after.Compression)
	case "export":
		if *out == "" {
			fmt.Fprintln(os.Stderr, "homestore export: -out is required")
			usage()
		}
		if err := s.Export(*out); err != nil {
			fatal("export to %s: %v", *out, err)
		}
		fmt.Printf("exported %d gateways to %s\n", len(s.Gateways()), *out)
	case "serve":
		serve(s, reg, *addr)
	default:
		fmt.Fprintf(os.Stderr, "homestore: unknown command %q\n", cmd)
		usage()
	}
}

// serve mounts the query API on the observability server and blocks
// until interrupted.
func serve(s *homestore.Store, reg *obs.Registry, addr string) {
	logger := slogx.With("component", "homestore")
	api := query.New(query.Config{Store: s, Registry: reg})
	srv, err := obs.NewServer(addr, reg, obs.WithHandler("/api/v1/", api.Handler()))
	if err != nil {
		fatal("serve on %s: %v", addr, err)
	}
	defer func() { _ = srv.Close() }()
	logger.Info("query server listening", "addr", srv.Addr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	logger.Info("shutting down")
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "homestore: "+format+"\n", args...)
	os.Exit(1)
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

func inspect(s *homestore.Store, asJSON bool) {
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
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(query.Wrap(rep)); err != nil {
			fatal("encode: %v", err)
		}
		return
	}
	st := rep.Stats
	fmt.Printf("campaign: start %s, step %s\n", rep.Start.Format(time.RFC3339), rep.Step)
	fmt.Printf("points:   %d total (%d in segments, %d in memtable/WAL), %d series, %d duplicates dropped\n",
		st.Points, st.SegmentPoints, st.MemPoints, st.Series, st.DupPoints)
	fmt.Printf("wal:      %d records replayed, %d bytes active, %d torn tails truncated\n",
		st.WALRecords, st.WALBytes, st.WALTruncations)
	if st.Compression > 0 {
		fmt.Printf("segments: %d (%d bytes, %.2fx compression vs raw 16-byte points)\n",
			st.Segments, st.SegmentBytes, st.Compression)
	} else {
		fmt.Printf("segments: %d\n", st.Segments)
	}
	for _, si := range rep.Segments {
		fmt.Printf("  seq %d: %d series, %d points, %d bytes, [%s, %s]\n",
			si.Seq, si.Series, si.Points, si.Bytes,
			time.Unix(si.MinTs, 0).UTC().Format(time.RFC3339),
			time.Unix(si.MaxTs, 0).UTC().Format(time.RFC3339))
	}
	fmt.Printf("gateways: %d\n", len(rep.Gateways))
	for _, gw := range rep.Gateways {
		fmt.Printf("  %s: %d devices\n", gw.ID, gw.Devices)
	}
}
