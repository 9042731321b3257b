package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	"homesight/internal/corrsim"
	"homesight/internal/dominance"
	"homesight/internal/fleet"
	"homesight/internal/livestats"
	"homesight/internal/query"
	"homesight/internal/store"
)

// liveDeployment is a fleet that has already ingested months-old state
// (every sketch saturated) with the /live route served over loopback.
type liveDeployment struct {
	p   *pipeline
	api *apiServer
}

func (d *liveDeployment) discard() error {
	if err := d.api.close(); err != nil {
		return err
	}
	return d.p.discard()
}

func (d *liveDeployment) liveURL(gw string) string {
	return d.api.url + "/api/v1/homes/" + gw + "/live"
}

// runLiveMixed is the open loop of writes beside reads: ticks arrive on
// a fixed schedule at a small share of peak ingest while a dashboard
// polls /live round-robin, so Tracker.Snapshot (under the per-home
// lock) dominates reads and can stall writers. Operation = one /live
// poll, timed from its due time; unit of work = one acked report.
func runLiveMixed(ctx context.Context, r *run) error {
	sc := r.sc
	d, err := setUp(r, func(rep int) (*liveDeployment, error) {
		st, err := newStream(r.seed, sc.liveHomes, sc.liveWeeks)
		if err != nil {
			return nil, err
		}
		if sc.livePreload >= st.minutes {
			return nil, fmt.Errorf("preload of %d minutes leaves nothing of a %d-minute campaign", sc.livePreload, st.minutes)
		}
		p, err := startPipeline(filepath.Join(r.dir, fmt.Sprintf("fleet-%d", rep)), st, sc.shards)
		if err != nil {
			return nil, err
		}
		warm := &ticker{p: p}
		t0 := time.Now()
		for m := 0; m < sc.livePreload; m++ {
			if err := warm.tick(ctx, m, t0, time.Time{}); err != nil {
				return nil, fmt.Errorf("preload: %w", err)
			}
		}
		api, err := serveAPI(query.New(query.Config{Live: p.fleet}).Handler())
		if err != nil {
			return nil, err
		}
		return &liveDeployment{p: p, api: api}, nil
	}, (*liveDeployment).discard)
	if err != nil {
		return err
	}
	p, st := d.p, d.p.st
	// Dashboards poll homes that exist: a home still in a reporting gap
	// at the end of the preload has no live state to serve.
	homes := reportingHomes(st)
	if len(homes) == 0 {
		return fmt.Errorf("no home reported during the %d-minute preload", sc.livePreload)
	}

	// Timed phase: the sender and the poller, each on its own schedule.
	t := &ticker{p: p, rec: r.rec}
	preloaded := preloadedReports(st)
	var (
		wg               sync.WaitGroup
		polls, probes    []op
		pollFail, pbFail int64
		sendErr          error
	)
	start := time.Now()
	deadline := start.Add(time.Duration(r.seconds * float64(time.Second)))
	wg.Add(2)
	go func() { // sender
		defer wg.Done()
		c := newClient()
		defer c.CloseIdleConnections()
		for k := 0; sc.livePreload+k < st.minutes; k++ {
			due := start.Add(time.Duration(k) * sc.liveTick)
			if !due.Before(deadline) {
				return
			}
			time.Sleep(time.Until(due))
			if sendErr = t.tick(ctx, sc.livePreload+k, start, due); sendErr != nil {
				return
			}
			if k%sc.liveProbeEvery != 0 {
				continue
			}
			// Read our own write back: the tick is acked, so /live for a
			// home of that tick must already count its report.
			h := homes[(k/sc.liveProbeEvery)%len(homes)]
			sp := r.rec.begin("query.live_get", -1, int64(sc.livePreload+k))
			raw, _, err := get(c, d.liveURL(h.id))
			r.rec.end(sp)
			lat := op{At: due.Sub(start).Seconds(), Ms: ms(time.Since(due))}
			var ld query.LiveData
			if err == nil {
				err = json.Unmarshal(raw, &ld)
			}
			if err != nil || ld.Gateway != h.id || ld.Reports < h.sent {
				pbFail++
				r.log.Warn("stale or failed probe", "home", h.id, "reports", ld.Reports, "sent", h.sent, "err", err)
				continue
			}
			probes = append(probes, lat)
		}
	}()
	go func() { // poller
		defer wg.Done()
		c := newClient()
		defer c.CloseIdleConnections()
		for j := 0; ; j++ {
			due := start.Add(time.Duration(j) * sc.livePoll)
			if !due.Before(deadline) {
				return
			}
			time.Sleep(time.Until(due))
			h := homes[j%len(homes)]
			root := r.rec.begin("poll", -1, int64(j))
			sp := r.rec.begin("query.live_get", root, int64(j))
			_, _, err := get(c, d.liveURL(h.id))
			r.rec.end(sp)
			r.rec.end(root)
			if err != nil {
				pollFail++
				r.log.Warn("failed poll", "home", h.id, "err", err)
				continue
			}
			polls = append(polls, op{At: due.Sub(start).Seconds(), Ms: ms(time.Since(due))})
		}
	}()
	wg.Wait()
	wall := time.Since(start)
	rss := peakRSSMB()
	if sendErr != nil {
		return sendErr
	}
	if len(polls) == 0 {
		return fmt.Errorf("no poll completed in %.1fs", r.seconds)
	}

	res := r.res
	tail, tailP := tailOf(polls)
	res.set(mWork, float64(t.reports)/wall.Seconds(), int(t.reports))
	res.set(mOpP50, windowedPercentile(polls, 0.5), len(polls))
	res.set(mOpTail, tail, len(polls))
	res.set(mPeakRSS, rss, 1)
	r.log.Info("timed phase done", "ticks", len(t.acks), "polls", len(polls), "probes", len(probes), "tail_percentile", tailP)

	dl := p.delivery(sc.shards)
	res.attempted = t.reports + int64(len(t.acks)) + int64(len(polls)) + pollFail + int64(len(probes)) + pbFail
	res.failed = dl.appendErrs + pollFail + pbFail
	dl.check(res, preloaded+t.reports)
	res.check("ack_implies_visible", pbFail == 0 && len(probes) > 0, "%d of %d read-your-write probes stale or failed", pbFail, int64(len(probes))+pbFail)
	res.check("polls_ok", pollFail == 0, "%d of %d polls failed", pollFail, int64(len(polls))+pollFail)

	if r.traced() {
		t.fleetLayerMetrics(res, dl, sc.shards)
		res.set("e2e.tick_ack_p50_ms", windowedPercentile(t.acks, 0.5), len(t.acks))
		res.set("e2e.tick_ack_p99_ms", windowedPercentile(t.acks, 0.99), len(t.acks))
		res.set("e2e.live_get_p50_ms", res.metrics[mOpP50].Value, len(polls))
		res.set("e2e.live_get_p95_ms", windowedPercentile(polls, 0.95), len(polls))
		res.set("e2e.emit_to_live_p50_ms", median(durations(probes)), len(probes))
		res.set("e2e.emit_to_live_p95_ms", percentile(durations(probes), 0.95), len(probes))
		res.set("driver.late_p99_ms", percentile(t.late, 0.99), len(t.late))
		res.set("driver.emit_share", t.emit.Seconds()/wall.Seconds(), len(t.acks))
		res.set("synth.generate_s", st.generateS, 1)
		tracedRun(r, wall)
		if err := liveLayerProbes(ctx, r, d, homes, sc.livePreload+len(t.acks)); err != nil {
			return err
		}
	}

	// Drain, then hold sampled homes' final snapshots against the batch
	// pipeline recomputed from the partitions.
	if err := d.api.close(); err != nil {
		return err
	}
	if err := p.stop(); err != nil {
		return err
	}
	if err := reconcileLive(ctx, r, p, homes); err != nil {
		return err
	}
	if !r.traced() {
		return nil
	}
	sg, err := stagedReplay(r, st, dl.reportsPerFrame())
	if err != nil {
		return err
	}
	// In the open loop the sender mostly waits for its schedule; the
	// end-to-end cost of a report is the busy part of a tick.
	sg.record(res, float64(t.busy.Nanoseconds())/float64(t.reports))
	return nil
}

// reportingHomes lists the homes that have sent at least one report.
func reportingHomes(st *stream) []*homeStream {
	var out []*homeStream
	for _, h := range st.homes {
		if h.sent > 0 {
			out = append(out, h)
		}
	}
	return out
}

// preloadedReports is how many reports the set-up pushed in: at the end
// of set-up, exactly what every home has sent.
func preloadedReports(st *stream) int64 {
	var n int64
	for _, h := range st.homes {
		n += h.sent
	}
	return n
}

// liveLayerProbes times the read path's layers directly, on the idle
// system after the timed phase: Tracker.Snapshot through
// Fleet.LiveSnapshot (changed = first call after a tick, unchanged =
// second call with no ingest between), the /live handler without a
// socket, and the same request through the loopback client.
func liveLayerProbes(ctx context.Context, r *run, d *liveDeployment, homes []*homeStream, nextMinute int) error {
	st, res := d.p.st, r.res
	feed := &ticker{p: d.p}
	var changed, unchanged []float64
	for m := nextMinute; len(changed) < r.sc.probes && m < st.minutes; m++ {
		if err := feed.tick(ctx, m, time.Now(), time.Time{}); err != nil {
			return err
		}
		for _, h := range homes {
			sp := r.rec.begin("livestats.snapshot", -1, int64(m))
			t0 := time.Now()
			_, ok := d.p.fleet.LiveSnapshot(h.id)
			t1 := time.Now()
			r.rec.end(sp)
			_, ok2 := d.p.fleet.LiveSnapshot(h.id)
			t2 := time.Now()
			if !ok || !ok2 {
				return fmt.Errorf("home %s has no live snapshot", h.id)
			}
			changed = append(changed, ms(t1.Sub(t0)))
			unchanged = append(unchanged, ms(t2.Sub(t1)))
		}
	}
	res.set("livestats.snapshot_p50_ms", median(changed), len(changed))
	res.set("livestats.snapshot_p95_ms", percentile(changed, 0.95), len(changed))
	res.set("livestats.snapshot_unchanged_p50_ms", median(unchanged), len(unchanged))

	c := newClient()
	defer c.CloseIdleConnections()
	var handler, client []float64
	var bodyBytes int64
	for i := 0; i < r.sc.probes/4; i++ {
		h := homes[i%len(homes)]
		req := httptest.NewRequest(http.MethodGet, d.liveURL(h.id), nil)
		w := httptest.NewRecorder()
		sp := r.rec.begin("query.live_handler", -1, int64(i))
		t0 := time.Now()
		d.api.handler.ServeHTTP(w, req)
		handler = append(handler, ms(time.Since(t0)))
		r.rec.end(sp)
		if w.Code != http.StatusOK {
			return fmt.Errorf("/live handler for %s: status %d", h.id, w.Code)
		}
		bodyBytes += int64(w.Body.Len())
		t0 = time.Now()
		if _, _, err := get(c, d.liveURL(h.id)); err != nil {
			return err
		}
		client = append(client, ms(time.Since(t0)))
	}
	res.set("query.live_handler_p50_ms", median(handler), len(handler))
	res.set("query.http_overhead_p50_us", (median(client)-median(handler))*1e3, len(client))
	if len(handler) > 0 {
		res.set("query.live_bytes_per_response", float64(bodyBytes)/float64(len(handler)), len(handler))
	}
	return nil
}

// coeffDelta is |a-b|, with both-undefined counted as agreement.
func coeffDelta(a, b float64) float64 {
	if math.IsNaN(a) && math.IsNaN(b) {
		return 0
	}
	return math.Abs(a - b)
}

// Tolerances of the online operators against the batch pipeline, as
// STREAMING.md documents them: the Pearson accumulator is exact, the
// rank reservoir (and the similarity gate, a maximum over all three
// coefficients) is within ±0.15 past RankCap.
const (
	pearsonTol = 1e-6
	rankTol    = 0.15
)

// reconcileLive recomputes a seeded sample of the reporting homes
// offline from the drained partitions and compares every device row
// with the home's final live snapshot.
func reconcileLive(ctx context.Context, r *run, p *pipeline, homes []*homeStream) error {
	dirs, err := fleet.LivePartitions(p.root)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed))
	want := make(map[string]bool)
	for _, i := range rng.Perm(len(homes))[:min(r.sc.liveReconcile, len(homes))] {
		want[homes[i].id] = true
	}
	var maxPearson, maxRank, maxSim float64
	rows, found := 0, 0
	for _, dir := range dirs {
		db, err := store.Open(store.Config{Dir: dir})
		if err != nil {
			return fmt.Errorf("reopening %s: %w", dir, err)
		}
		for _, gw := range db.Gateways() {
			if !want[gw] {
				continue
			}
			off, err := livestats.Offline(ctx, db, gw, corrsim.Measure{}, dominance.DefaultPhi)
			if err != nil {
				_ = db.Close() //homesight:ignore unchecked-close — recompute error wins
				return fmt.Errorf("offline recompute of %s: %w", gw, err)
			}
			snap, ok := p.fleet.LiveSnapshot(gw)
			if !ok {
				_ = db.Close() //homesight:ignore unchecked-close — missing snapshot wins
				return fmt.Errorf("%s is in the partitions but in no live tracker", gw)
			}
			found++
			for _, dev := range snap.Devices {
				det, known := off.Details[dev.Device.MAC]
				if !known {
					continue
				}
				rows++
				maxPearson = math.Max(maxPearson, coeffDelta(dev.Pearson.Coeff, det.Pearson.Coeff))
				maxRank = math.Max(maxRank, coeffDelta(dev.Spearman.Coeff, det.Spearman.Coeff))
				maxRank = math.Max(maxRank, coeffDelta(dev.Kendall.Coeff, det.Kendall.Coeff))
				maxSim = math.Max(maxSim, coeffDelta(dev.Similarity, det.Similarity))
			}
		}
		if err := db.Close(); err != nil {
			return err
		}
	}
	ok := found == len(want) && rows > 0 && maxPearson <= pearsonTol && maxRank <= rankTol && maxSim <= rankTol
	r.res.check("live_reconciles_with_offline", ok,
		"%d/%d homes, %d device rows: max |Δ| pearson %.2e (tol %.0e), rank %.3f, similarity %.3f (tol %.2f)",
		found, len(want), rows, maxPearson, pearsonTol, maxRank, maxSim, rankTol)
	if r.traced() {
		r.res.set("livestats.reconcile_max_pearson_delta", maxPearson, rows)
		r.res.set("livestats.reconcile_max_rank_delta", maxRank, rows)
	}
	return nil
}
