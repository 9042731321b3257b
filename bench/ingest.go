package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"homesight/internal/fleet"
	"homesight/internal/livestats"
	"homesight/internal/store"
)

// runIngestFleet is the write-only closed loop: one sender streams the
// deployment minute-major into an empty 2-shard fleet — per virtual
// minute, Send × homes then the Flush ack barrier — and nobody reads.
// Operation = one tick (first Send → Flush returned); unit of work =
// one acked report.
func runIngestFleet(ctx context.Context, r *run) error {
	sc := r.sc
	p, err := setUp(r, func(rep int) (*pipeline, error) {
		st, err := newStream(r.seed, sc.ingestHomes, sc.ingestWeeks)
		if err != nil {
			return nil, err
		}
		return startPipeline(filepath.Join(r.dir, fmt.Sprintf("fleet-%d", rep)), st, sc.shards)
	}, (*pipeline).discard)
	if err != nil {
		return err
	}
	st := p.st

	// Timed phase.
	t := &ticker{p: p, rec: r.rec}
	start := time.Now()
	minutes := min(int(r.seconds*float64(sc.ingestTicksPerSecond)), st.minutes)
	for m := 0; m < minutes; m++ {
		if err := t.tick(ctx, m, start, time.Time{}); err != nil {
			return err
		}
	}
	wall := time.Since(start)
	rss := peakRSSMB()
	if t.reports == 0 {
		return fmt.Errorf("no report was sent in %.1fs", r.seconds)
	}

	res := r.res
	tail, tailP := tailOf(t.acks)
	res.set(mWork, float64(t.reports)/wall.Seconds(), int(t.reports))
	res.set(mOpP50, windowedPercentile(t.acks, 0.5), len(t.acks))
	res.set(mOpTail, tail, len(t.acks))
	res.set(mPeakRSS, rss, 1)
	r.log.Info("timed phase done", "minutes", minutes, "reports", t.reports,
		"reports_per_s", float64(t.reports)/wall.Seconds(), "tail_percentile", tailP)

	// Accounting, while the shards are still up.
	dl := p.delivery(sc.shards)
	res.attempted = t.reports + int64(minutes) // every Send and every Flush
	res.failed = dl.appendErrs
	dl.check(res, t.reports)
	if r.traced() {
		t.fleetLayerMetrics(res, dl, sc.shards)
	}

	// Drain, then prove the partitions hold exactly what was sent.
	if err := p.stop(); err != nil {
		return err
	}
	disk, err := dirBytes(p.root)
	if err != nil {
		return err
	}
	stored, err := reopenPartitions(ctx, r, p.root)
	if err != nil {
		return err
	}
	res.check("partitions_hold_all_points", stored == t.points, "reopened partitions hold %d points, sent %d", stored, t.points)

	if !r.traced() {
		return nil
	}
	res.set("e2e.reports_per_s", res.metrics[mWork].Value, int(t.reports))
	res.set("e2e.tick_ack_p50_ms", res.metrics[mOpP50].Value, len(t.acks))
	res.set("e2e.tick_ack_p99_ms", windowedPercentile(t.acks, 0.99), len(t.acks))
	res.set("e2e.disk_bytes_per_point", float64(disk)/float64(stored), int(stored))
	res.set("synth.generate_s", st.generateS, 1)
	res.set("driver.emit_share", t.emit.Seconds()/wall.Seconds(), minutes)
	tracedRun(r, wall)

	sg, err := stagedReplay(r, st, dl.reportsPerFrame())
	if err != nil {
		return err
	}
	sg.record(res, float64(t.busy.Nanoseconds())/float64(t.reports))
	return nil
}

// tracedRun records the traced run's own end-to-end figures and what
// recording the spans cost, so the traced and untraced runs of a
// workload can be laid side by side.
func tracedRun(r *run, wall time.Duration) {
	res := r.res
	res.set("driver.traced_work_per_s", res.metrics[mWork].Value, res.metrics[mWork].N)
	res.set("driver.traced_op_p50_ms", res.metrics[mOpP50].Value, res.metrics[mOpP50].N)
	spans := r.rec.count()
	res.set("driver.spans", float64(spans), spans)
	res.set("driver.trace_overhead_share", spanCostNs()*float64(spans)/float64(wall.Nanoseconds()), spans)
}

// reopenPartitions reopens every drained partition under root — the
// recovery path: segments indexed, WALs replayed — and returns the
// points they hold. A traced run also times the reopen and a tracker
// rebuild over the first partition.
func reopenPartitions(ctx context.Context, r *run, root string) (int64, error) {
	dirs, err := fleet.LivePartitions(root)
	if err != nil {
		return 0, err
	}
	var stored int64
	var reopen time.Duration
	for i, d := range dirs {
		sp := r.rec.begin("store.reopen", -1, int64(i))
		t0 := time.Now()
		db, err := store.Open(store.Config{Dir: d})
		if err != nil {
			return 0, fmt.Errorf("reopening %s: %w", d, err)
		}
		reopen += time.Since(t0)
		r.rec.end(sp)
		s := db.Stats()
		stored += s.SegmentPoints + int64(s.MemPoints)
		if r.traced() && i == 0 {
			tr := livestats.NewTracker(livestats.Config{Start: db.Start(), Step: db.Step()})
			sp := r.rec.begin("livestats.rebuild", -1, int64(i))
			t0 := time.Now()
			replayed, err := tr.Rebuild(ctx, db)
			if err != nil {
				_ = db.Close() //homesight:ignore unchecked-close — rebuild error wins
				return 0, fmt.Errorf("rebuilding tracker from %s: %w", d, err)
			}
			r.rec.end(sp)
			r.res.set("livestats.rebuild_s", time.Since(t0).Seconds(), replayed)
		}
		if err := db.Close(); err != nil {
			return 0, err
		}
	}
	if r.traced() {
		r.res.set("store.reopen_s", reopen.Seconds(), len(dirs))
	}
	return stored, nil
}
