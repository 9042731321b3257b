package telemetry_test

// The deterministic fault-injection suite (`make test-faults` runs every
// TestFault* under -race). The acceptance bar: with injected write
// failures, torn frames, garbage on the wire, stale frames on an old
// connection and stalled flushes, the collector's partition ends up
// holding every report exactly once, its live tracker lands on the state
// of a tracker that watched the clean stream, and the counters account
// for every rejected frame and duplicate point.

import (
	"context"
	"math"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"homesight/internal/fleet"
	"homesight/internal/gateway"
	"homesight/internal/livestats"
	"homesight/internal/stats/corr"
	"homesight/internal/store"
	"homesight/internal/telemetry"
	"homesight/internal/telemetry/faultnet"
)

// liveResultEq is bit-equality on corr.Result with NaN == NaN.
func liveResultEq(a, b corr.Result) bool {
	num := func(x, y float64) bool { return x == y || (math.IsNaN(x) && math.IsNaN(y)) }
	return a.N == b.N && num(a.Coeff, b.Coeff) && num(a.PValue, b.PValue)
}

// assertSnapshotsEqual demands exact operator-state equality: the two
// trackers consumed the same logical stream, so every accumulator —
// co-moments, reservoirs, quantile sketches — must agree bit for bit.
// Report counts are not compared: they count deliveries, and a replayed
// duplicate is a delivery whose rows the watermark drops.
func assertSnapshotsEqual(t *testing.T, got, want *livestats.HomeSnapshot) {
	t.Helper()
	if got.Minutes != want.Minutes {
		t.Errorf("%d minutes, want %d", got.Minutes, want.Minutes)
	}
	if len(got.Devices) != len(want.Devices) {
		t.Fatalf("%d devices, want %d", len(got.Devices), len(want.Devices))
	}
	for i := range want.Devices {
		g, w := got.Devices[i], want.Devices[i]
		if g.Device.MAC != w.Device.MAC {
			t.Fatalf("device %d: %s, want %s", i, g.Device.MAC, w.Device.MAC)
		}
		if g.Pairs != w.Pairs {
			t.Errorf("%s: %d pairs, want %d", g.Device.MAC, g.Pairs, w.Pairs)
		}
		if !liveResultEq(g.Pearson, w.Pearson) || !liveResultEq(g.Spearman, w.Spearman) || !liveResultEq(g.Kendall, w.Kendall) {
			t.Errorf("%s: coefficients diverged:\n got %+v %+v %+v\nwant %+v %+v %+v",
				g.Device.MAC, g.Pearson, g.Spearman, g.Kendall, w.Pearson, w.Spearman, w.Kendall)
		}
		if g.Similarity != w.Similarity || g.Dominant != w.Dominant {
			t.Errorf("%s: similarity %v/%v, want %v/%v", g.Device.MAC, g.Similarity, g.Dominant, w.Similarity, w.Dominant)
		}
		if g.Euclidean != w.Euclidean || g.Traffic != w.Traffic {
			t.Errorf("%s: euclidean/traffic %v/%v, want %v/%v", g.Device.MAC, g.Euclidean, g.Traffic, w.Euclidean, w.Traffic)
		}
		if g.Threshold != w.Threshold || g.Tau != w.Tau {
			t.Errorf("%s: threshold %+v τ %v, want %+v τ %v", g.Device.MAC, g.Threshold, g.Tau, w.Threshold, w.Tau)
		}
	}
}

// TestFaultInjectionPipeline is the acceptance campaign: a router
// streams a campaign into a 1-shard collector (SyncAlways, live tracker
// on) while its connections lose a frame before the wire, tear one
// mid-write and carry garbage the shard rejects as a corrupt frame. After
// Flush the shard is killed. The reopened partition must equal the
// campaign point for point, the tracker must equal one fed the clean
// stream, and the counters must account for the faults.
func TestFaultInjectionPipeline(t *testing.T) {
	const gw = "gwF"
	reps := campaign(gw, 720)
	want := livestats.NewTracker(livestats.Config{Start: mon, Seed: 3})
	for _, rep := range reps {
		want.OnReport(rep)
	}

	f := startCollector(t, fleet.Config{Sync: store.SyncAlways, Live: &livestats.Config{Seed: 3}})
	// Connection n gets plans[n]; later connections run clean. Each plan
	// fires once, since the fault breaks the connection it fires on.
	plans := []faultnet.Faults{
		{FailWrites: []int{5}},    // a frame lost before the wire
		{PartialWrites: []int{7}}, // a frame torn mid-write
		{GarbageEvery: 9},         // garbage the shard reads as a corrupt frame
	}
	var (
		mu    sync.Mutex
		conns []*faultnet.Conn
	)
	r, err := fleet.NewRouter(fleet.RouterConfig{
		Shards:    f.Addrs(),
		BatchSize: 8,
		Reporter:  telemetry.ReporterConfig{BaseBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond},
		DialShard: func(addr string) (net.Conn, error) {
			raw, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			defer mu.Unlock()
			if len(conns) == len(plans) {
				return raw, nil
			}
			fc := faultnet.Wrap(raw, plans[len(conns)])
			conns = append(conns, fc)
			return fc, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, rep := range reps {
		if err := r.Send(ctx, rep); err != nil {
			t.Fatalf("send %v: %v", rep.Timestamp, err)
		}
	}
	if err := r.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	rs := r.Stats()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	shard := f.Shard(0)
	f.Kill(0) // no flush, no clean close: SyncAlways made every ack durable

	mu.Lock()
	if len(conns) != len(plans) {
		t.Fatalf("only %d of %d faulted connections dialed", len(conns), len(plans))
	}
	if inj := conns[0].Injected(); inj.Fails != 1 {
		t.Errorf("connection 0 failed %d writes, want 1", inj.Fails)
	}
	if inj := conns[1].Injected(); inj.Partials != 1 {
		t.Errorf("connection 1 tore %d writes, want 1", inj.Partials)
	}
	if inj := conns[2].Injected(); inj.GarbageLines == 0 {
		t.Error("connection 2 put no garbage on the wire")
	}
	mu.Unlock()
	st := shard.Stats()
	if st.FramesRejected == 0 {
		t.Errorf("stats %+v: the garbage was not rejected as a corrupt frame", st)
	}
	if st.AppendErrors != 0 {
		t.Errorf("stats %+v: want no append errors", st)
	}
	if want := int64(len(reps)) + rs.ReplayedReports + rs.ReassignedReports; rs.ReportsRouted != want {
		t.Errorf("ReportsRouted = %d, want %d sent + %d replayed + %d reassigned",
			rs.ReportsRouted, len(reps), rs.ReplayedReports, rs.ReassignedReports)
	}

	assertSameReports(t, partitionReports(t, shard.Dir(), gw), reps)
	gotSnap, ok := f.LiveSnapshot(gw)
	if !ok {
		t.Fatal("no live state for the campaign gateway")
	}
	wantSnap, _ := want.LiveSnapshot(gw)
	assertSnapshotsEqual(t, gotSnap, wantSnap)
	// The degenerate device (constant deltas) survives the trip as a
	// NaN-coefficient row, never significant, never dominant.
	for _, d := range gotSnap.Devices {
		if d.Device.MAC == "m3" && (!math.IsNaN(d.Pearson.Coeff) || d.Similarity != 0 || d.Dominant) {
			t.Errorf("constant device: %+v, want NaN coeff, similarity 0, not dominant", d)
		}
	}
}

// TestFaultLiveTrackerPipeline drives the shard's live tracker through a
// reporter whose every connection meets a fault: garbage the shard
// rejects as a corrupt frame, or a frame torn mid-write. Each reconnect
// replays the unacked window, so the tracker sees redelivered reports;
// it must still land on exactly the state of a tracker that watched the
// clean stream.
func TestFaultLiveTrackerPipeline(t *testing.T) {
	const gw = "gwL"
	reps := campaign(gw, 720)
	want := livestats.NewTracker(livestats.Config{Start: mon, Seed: 3})
	for _, rep := range reps {
		want.OnReport(rep)
	}

	f := startCollector(t, fleet.Config{Live: &livestats.Config{Seed: 3}})
	shard := f.Shard(0)
	inj := streamFaulted(t, shard.Addr(), reps,
		faultnet.Faults{GarbageEvery: 13},
		faultnet.Faults{PartialWrites: []int{11}},
	)
	if err := f.Drain(); err != nil {
		t.Fatal(err)
	}
	if inj.GarbageLines == 0 || inj.Partials == 0 {
		t.Fatalf("injections %+v: want both garbage and a torn frame", inj)
	}
	if st := shard.Stats(); st.FramesRejected == 0 {
		t.Errorf("stats %+v: the garbage was not rejected as a corrupt frame", st)
	}
	if shard.StoreStats().DupPoints == 0 {
		t.Error("no replayed point reached the partition: the tracker saw no redelivered report")
	}

	gotSnap, ok := f.LiveSnapshot(gw)
	if !ok {
		t.Fatal("no live state for the campaign gateway")
	}
	wantSnap, _ := want.LiveSnapshot(gw)
	assertSnapshotsEqual(t, gotSnap, wantSnap)
}

// TestFaultCleanBreaks: every connection loses its 20th write before the
// wire, so the reporter reconnects again and again. Each reconnect
// replays the window, the shard never sees a corrupt frame, and the
// partition holds the campaign exactly once.
func TestFaultCleanBreaks(t *testing.T) {
	f := startCollector(t, fleet.Config{})
	shard := f.Shard(0)
	dials := 0
	rep, err := telemetry.DialBatch(shard.Addr(), telemetry.ReporterConfig{
		BaseBackoff: time.Millisecond,
		MaxBackoff:  10 * time.Millisecond,
		Dial: func() (net.Conn, error) {
			raw, err := net.Dial("tcp", shard.Addr())
			if err != nil {
				return nil, err
			}
			dials++
			return faultnet.Wrap(raw, faultnet.Faults{FailEvery: 20}), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	reps := campaign("gwG", 720)
	ctx := context.Background()
	for lo := 0; lo < len(reps); lo += 8 {
		if err := rep.Send(ctx, reps[lo:lo+8]); err != nil {
			t.Fatalf("send %d: %v", lo, err)
		}
	}
	if err := rep.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Drain(); err != nil {
		t.Fatal(err)
	}
	if dials < 3 {
		t.Errorf("%d dials: want repeated reconnects", dials)
	}
	if shard.StoreStats().DupPoints == 0 {
		t.Error("no replayed point reached the partition: the reconnects replayed no window")
	}
	if st := shard.Stats(); st.FramesRejected != 0 || st.ConnsOpened != int64(dials) {
		t.Errorf("stats %+v: want no rejected frame over %d connections", st, dials)
	}
	assertSameReports(t, partitionReports(t, shard.Dir(), "gwG"), reps)
}

// TestFaultReconnectOvertake is the reconnect race at the shard. A
// reporter's connection A has its window's frames still unread when it
// reconnects: connection B replays that window, carries on and is
// acked. Only then does the shard get to A's copies of the same frames.
// The partition must not change, and the stale frames count only as
// duplicate points.
func TestFaultReconnectOvertake(t *testing.T) {
	f := startCollector(t, fleet.Config{})
	shard := f.Shard(0)
	reps := campaign("gwR", 100)
	frames := make([][]gateway.Report, 0, 20)
	for lo := 0; lo < len(reps); lo += 5 {
		frames = append(frames, reps[lo:lo+5])
	}
	const split = 10 // A carried frames [0, split); the last Window were unacked
	stale := frames[split-telemetry.DefaultBatchWindow : split]
	dial := func() net.Conn {
		conn, err := net.Dial("tcp", shard.Addr())
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}
	a, b := dial(), dial()
	writeFrames(t, a, frames[:split-telemetry.DefaultBatchWindow]...)
	writeFrames(t, b, frames[split-telemetry.DefaultBatchWindow:]...) // replay, then carry on
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	before, marks := shard.StoreStats(), shard.Watermarks()

	writeFrames(t, a, stale...)
	after := shard.StoreStats()
	stalePoints := int64(0)
	for _, fr := range stale {
		for _, rep := range fr {
			stalePoints += 2 * int64(len(rep.Devices))
		}
	}
	if after.Points != before.Points || after.DupPoints != before.DupPoints+stalePoints {
		t.Errorf("stale frames: points %d → %d, dups %d → %d; want points unchanged and %d more dups",
			before.Points, after.Points, before.DupPoints, after.DupPoints, stalePoints)
	}
	if !reflect.DeepEqual(shard.Watermarks(), marks) {
		t.Error("stale frames moved a watermark")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Drain(); err != nil {
		t.Fatal(err)
	}
	assertSameReports(t, partitionReports(t, shard.Dir(), "gwR"), reps)
}

// TestFaultDelayedFlushReadTimeout pins the read-deadline path: a sender
// whose flushes stall past the shard's read deadline is disconnected,
// and the reporter's reconnect replays its window.
func TestFaultDelayedFlushReadTimeout(t *testing.T) {
	f, err := fleet.Start(fleet.Config{
		Dir: t.TempDir(), Shards: 1,
		Start: mon, Step: time.Minute, ReadTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	shard := f.Shard(0)
	defer func() { _ = shard.Close() }() // second close after Drain is expected to ErrClosed

	// Only the first connection stalls. The second counts its writes, and
	// sending records which batch was in flight when it was dialed.
	var redial *faultnet.Conn
	dials, sending, sendingAtRedial := 0, 0, 0
	rep, err := telemetry.DialBatch(shard.Addr(), telemetry.ReporterConfig{
		BaseBackoff: time.Millisecond,
		MaxBackoff:  10 * time.Millisecond,
		Dial: func() (net.Conn, error) {
			raw, err := net.Dial("tcp", shard.Addr())
			if err != nil {
				return nil, err
			}
			dials++
			switch dials {
			case 1:
				return faultnet.Wrap(raw, faultnet.Faults{WriteDelay: 200 * time.Millisecond}), nil
			case 2:
				redial, sendingAtRedial = faultnet.Wrap(raw, faultnet.Faults{}), sending
				return redial, nil
			}
			return raw, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	reps := campaign("gwT", 4)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := range reps {
		sending = i
		if err := rep.Send(ctx, reps[i:i+1]); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	sending = len(reps)
	if err := rep.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}
	if err := shard.Drain(); err != nil {
		t.Fatal(err)
	}
	// Without a replay the redialed connection would carry one frame per
	// batch from the one in flight on: any more is the window resent.
	if redial == nil {
		t.Error("the reporter never reconnected")
	} else if w := redial.Injected().Writes; w <= len(reps)-sendingAtRedial {
		t.Errorf("the reconnect carried %d frames for the %d batches from send %d on: it replayed no window",
			w, len(reps)-sendingAtRedial, sendingAtRedial)
	}
	if st := shard.Stats(); st.ConnsOpened < 2 {
		t.Errorf("ConnsOpened = %d, want >= 2 (the read deadline should have dropped the stalled conn)", st.ConnsOpened)
	}
	assertSameReports(t, partitionReports(t, shard.Dir(), "gwT"), reps)
}
