package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"homesight/internal/fleet"
	"homesight/internal/gateway"
	"homesight/internal/livestats"
	"homesight/internal/store"
	"homesight/internal/telemetry"
)

// pipeline is the batch-frame ingest path both ingest workloads drive:
// one router in front of in-process shards, each with its own homestore
// partition (group-commit fsync) and live tracker — what
// `collector -shards N -live` runs.
type pipeline struct {
	st     *stream
	root   string
	fleet  *fleet.Fleet
	router *fleet.Router
}

func startPipeline(root string, st *stream, shards int) (*pipeline, error) {
	f, err := fleet.Start(fleet.Config{
		Dir: root, Shards: shards,
		Start: st.start, Step: time.Minute,
		Sync: store.SyncInterval,
		Live: &livestats.Config{},
	})
	if err != nil {
		return nil, fmt.Errorf("starting fleet: %w", err)
	}
	r, err := fleet.NewRouter(fleet.RouterConfig{Shards: f.Addrs()})
	if err != nil {
		_ = f.Close() //homesight:ignore unchecked-close — router error wins
		return nil, fmt.Errorf("starting router: %w", err)
	}
	return &pipeline{st: st, root: root, fleet: f, router: r}, nil
}

// stop closes the router and drains the shards: every acked frame is in
// its partition when stop returns.
func (p *pipeline) stop() error {
	if err := p.router.Close(); err != nil {
		return fmt.Errorf("closing router: %w", err)
	}
	if err := p.fleet.Drain(); err != nil {
		return fmt.Errorf("draining fleet: %w", err)
	}
	return nil
}

// discard is stop plus removal of the partitions: the end of a set-up
// repetition that is not the measured one.
func (p *pipeline) discard() error {
	if err := p.stop(); err != nil {
		return err
	}
	return os.RemoveAll(p.root)
}

// delivery is the router's and shards' own accounting of a pipeline.
type delivery struct {
	routed, frames              int64
	appended, maxAppended       int64
	appendErrs, duplicatePoints int64
}

func (p *pipeline) delivery(shards int) delivery {
	rs := p.router.Stats()
	d := delivery{routed: rs.ReportsRouted, frames: rs.BatchesFlushed}
	for i := 0; i < shards; i++ {
		ss := p.fleet.Shard(i).Stats()
		d.appended += ss.ReportsAppended
		d.maxAppended = max(d.maxAppended, ss.ReportsAppended)
		d.appendErrs += ss.AppendErrors
		d.duplicatePoints += p.fleet.Shard(i).StoreStats().DupPoints
	}
	return d
}

// check holds the accounting to the number of reports the benchmark
// sent: everything routed, everything appended, nothing twice.
func (d delivery) check(res *result, sent int64) {
	res.check("router_routed_all", d.routed == sent, "routed %d, sent %d", d.routed, sent)
	res.check("shards_appended_all", d.appended == sent && d.appendErrs == 0,
		"appended %d, append errors %d, sent %d", d.appended, d.appendErrs, sent)
	res.check("no_duplicate_points", d.duplicatePoints == 0, "%d duplicate points", d.duplicatePoints)
}

// reportsPerFrame is the mean frame size the router produced.
func (d delivery) reportsPerFrame() int {
	if d.frames == 0 {
		return 0
	}
	return int(float64(d.routed)/float64(d.frames) + 0.5)
}

// ticker sends the stream through the router one virtual minute at a
// time and keeps the per-tick accounting.
type ticker struct {
	p    *pipeline
	rec  *recorder
	reps []gateway.Report

	acks    []op      // first Send (or due time) → Flush returned
	flushes []float64 // ms inside Router.Flush
	late    []float64 // ms the generator started a tick after it was due
	emit    time.Duration
	send    time.Duration
	busy    time.Duration // emit + send + flush, without schedule waits
	reports int64
	points  int64
}

// tick emits minute m and pushes it through Send × homes + Flush. In
// the closed loop (zero due) the ack clock starts at the first Send; in
// the open loop it starts at the due time, so a stall charges the ticks
// queued behind it.
func (t *ticker) tick(ctx context.Context, m int, phaseStart, due time.Time) error {
	t0 := time.Now()
	t.reps = t.p.st.tick(m, t.reps[:0])
	t1 := time.Now()
	for _, rep := range t.reps {
		if err := t.p.router.Send(ctx, rep); err != nil {
			return fmt.Errorf("minute %d gateway %s: %w", m, rep.GatewayID, err)
		}
	}
	t2 := time.Now()
	if err := t.p.router.Flush(ctx); err != nil {
		return fmt.Errorf("minute %d flush: %w", m, err)
	}
	t3 := time.Now()

	from := t1
	if !due.IsZero() {
		from = due
		t.late = append(t.late, ms(t0.Sub(due)))
	}
	t.acks = append(t.acks, op{At: from.Sub(phaseStart).Seconds(), Ms: ms(t3.Sub(from))})
	t.flushes = append(t.flushes, ms(t3.Sub(t2)))
	t.emit += t1.Sub(t0)
	t.send += t2.Sub(t1)
	t.busy += t3.Sub(t0)
	t.reports += int64(len(t.reps))
	t.points += points(t.reps)

	if t.rec != nil {
		root := t.rec.add("tick", -1, int64(m), t0, t3)
		t.rec.add("gateway.emit", root, int64(m), t0, t1)
		t.rec.add("fleet.send", root, int64(m), t1, t2)
		t.rec.add("fleet.flush", root, int64(m), t2, t3)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// fleetLayerMetrics records what the router and shards report about a
// finished phase.
func (t *ticker) fleetLayerMetrics(res *result, d delivery, shards int) {
	if d.frames > 0 {
		res.set("fleet.reports_per_frame", float64(d.routed)/float64(d.frames), int(d.frames))
	}
	if d.appended > 0 {
		res.set("fleet.shard_skew", float64(d.maxAppended)*float64(shards)/float64(d.appended), shards)
	}
	res.set("store.dup_points", float64(d.duplicatePoints), shards)
	if t.reports > 0 {
		res.set("fleet.send_ns_per_report", float64(t.send.Nanoseconds())/float64(t.reports), int(t.reports))
	}
	res.set("fleet.flush_wait_p50_ms", median(t.flushes), len(t.flushes))
	res.set("fleet.flush_wait_p99_ms", percentile(t.flushes, 0.99), len(t.flushes))
	res.set("fleet.tick_ack_max_ms", percentile(durations(t.acks), 1), len(t.acks))
}

// staged is the per-layer cost of the head of a stream, each layer's
// exported function timed on its own.
type staged struct {
	reports, points, frames, frameBytes int64

	emit, ring, encode, decode, appendD, onReport time.Duration
	appendUs                                      []float64

	walBytesPerPoint, segBytesPerPoint, compression float64
	flushS, compactS                                float64
}

// stagedReplay rewinds the stream and pushes its first n reports
// through every layer between gateway and tracker in isolation, minute
// by minute: emit, ring lookup, frame encode, frame read+decode, store
// append (group-commit fsync, as in the shards), tracker update. Shard
// internals cannot be spanned from outside, so this is where the
// per-layer rows of the ingest breakdown come from.
func stagedReplay(r *run, st *stream, perFrame int) (*staged, error) {
	st.rewind()
	dir := filepath.Join(r.dir, "staged")
	db, err := store.Open(store.Config{Dir: dir, Start: st.start, Step: time.Minute, Sync: store.SyncInterval})
	if err != nil {
		return nil, fmt.Errorf("opening staged store: %w", err)
	}
	tracker := livestats.NewTracker(livestats.Config{Start: st.start, Step: time.Minute})
	names := make([]string, r.sc.shards)
	for i := range names {
		names[i] = fleet.ShardName(i)
	}
	ring := fleet.NewRing(0, names...)
	if perFrame < 1 {
		perFrame = fleet.DefaultBatchSize
	}

	sg := &staged{}
	root := r.rec.begin("staged", -1, -1)
	var reps []gateway.Report
	var frame []byte
	br := bufio.NewReader(bytes.NewReader(nil))
	walSampled := false
	for m := 0; m < st.minutes && sg.reports < int64(r.sc.stagedReports); m++ {
		t0 := time.Now()
		reps = st.tick(m, reps[:0])
		t1 := time.Now()
		for _, rep := range reps {
			if ring.Lookup(rep.GatewayID) == "" {
				return nil, fmt.Errorf("ring lost gateway %s", rep.GatewayID)
			}
		}
		t2 := time.Now()
		sg.emit += t1.Sub(t0)
		sg.ring += t2.Sub(t1)
		for lo := 0; lo < len(reps); lo += perFrame {
			hi := min(lo+perFrame, len(reps))
			e0 := time.Now()
			frame = telemetry.AppendBatchFrame(frame[:0], reps[lo:hi])
			e1 := time.Now()
			br.Reset(bytes.NewReader(frame))
			payload, err := telemetry.ReadBatchFrame(br, 0)
			if err != nil {
				return nil, fmt.Errorf("reading staged frame: %w", err)
			}
			decoded, err := telemetry.DecodeBatchFrame(payload)
			if err != nil {
				return nil, fmt.Errorf("decoding staged frame: %w", err)
			}
			e2 := time.Now()
			for _, rep := range decoded {
				a0 := time.Now()
				if err := db.Append(rep); err != nil {
					return nil, fmt.Errorf("staged append: %w", err)
				}
				d := time.Since(a0)
				sg.appendD += d
				sg.appendUs = append(sg.appendUs, float64(d.Nanoseconds())/1e3)
			}
			e3 := time.Now()
			for _, rep := range decoded {
				tracker.OnReport(rep)
			}
			e4 := time.Now()
			sg.encode += e1.Sub(e0)
			sg.decode += e2.Sub(e1)
			sg.onReport += e4.Sub(e3)
			sg.frames++
			sg.frameBytes += int64(len(frame))
		}
		sg.reports += int64(len(reps))
		sg.points += points(reps)
		// The WAL counter restarts at the first memtable rotation
		// (1<<19 points); sample it while it still covers every point.
		if !walSampled && sg.points >= 400_000 {
			walSampled = true
			if s := db.Stats(); s.Points > 0 {
				sg.walBytesPerPoint = float64(s.WALBytes) / float64(s.Points)
			}
		}
	}
	if s := db.Stats(); !walSampled && s.Points > 0 && s.Segments == 0 {
		sg.walBytesPerPoint = float64(s.WALBytes) / float64(s.Points)
	}
	r.rec.end(root)

	sp := r.rec.begin("store.flush", -1, -1)
	t0 := time.Now()
	if err := db.Flush(); err != nil {
		return nil, fmt.Errorf("staged flush: %w", err)
	}
	sg.flushS = time.Since(t0).Seconds()
	r.rec.end(sp)
	if s := db.Stats(); s.SegmentPoints > 0 {
		sg.segBytesPerPoint = float64(s.SegmentBytes) / float64(s.SegmentPoints)
		sg.compression = s.Compression
	}
	sp = r.rec.begin("store.compact", -1, -1)
	t0 = time.Now()
	if err := db.Compact(); err != nil {
		return nil, fmt.Errorf("staged compact: %w", err)
	}
	sg.compactS = time.Since(t0).Seconds()
	r.rec.end(sp)
	if err := db.Close(); err != nil {
		return nil, fmt.Errorf("closing staged store: %w", err)
	}
	return sg, os.RemoveAll(dir)
}

// record writes the staged rows and the residual: end-to-end ns per
// report minus every staged layer is what the layers' own functions do
// not explain — sockets, the ack wait, scheduling (negative when the
// shards overlap the driver on a second CPU by more than that).
func (sg *staged) record(res *result, e2eNsPerReport float64) {
	if sg.reports == 0 {
		return
	}
	n := int(sg.reports)
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(sg.reports) }
	res.set("gateway.emit_ns_per_report", per(sg.emit), n)
	res.set("fleet.ring_lookup_ns", per(sg.ring), n)
	res.set("telemetry.frame_encode_ns_per_report", per(sg.encode), n)
	res.set("telemetry.frame_decode_ns_per_report", per(sg.decode), n)
	res.set("telemetry.frame_bytes_per_report", float64(sg.frameBytes)/float64(sg.reports), int(sg.frames))
	res.set("store.append_ns_per_report", per(sg.appendD), n)
	res.set("store.append_p99_us", percentile(sg.appendUs, 0.99), n)
	res.set("livestats.onreport_ns_per_report", per(sg.onReport), n)
	stagedSum := per(sg.emit) + per(sg.ring) + per(sg.encode) + per(sg.decode) + per(sg.appendD) + per(sg.onReport)
	res.set("fleet.staged_sum_ns_per_report", stagedSum, n)
	res.set("fleet.e2e_ns_per_report", e2eNsPerReport, n)
	res.set("fleet.unattributed_ns_per_report", e2eNsPerReport-stagedSum, n)

	res.set("store.wal_bytes_per_point", sg.walBytesPerPoint, int(sg.points))
	res.set("store.segment_bytes_per_point", sg.segBytesPerPoint, int(sg.points))
	res.set("store.compression_ratio", sg.compression, int(sg.points))
	res.set("store.flush_s", sg.flushS, 1)
	res.set("store.compact_s", sg.compactS, 1)
}

// dirBytes sums the regular files under root.
func dirBytes(root string) (int64, error) {
	var total int64
	err := filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
