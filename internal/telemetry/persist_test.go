package telemetry

import (
	"context"
	"math"
	"net"
	"testing"
	"time"

	"homesight/internal/gateway"
	"homesight/internal/store"
	"homesight/internal/telemetry/faultnet"
)

// TestCollectorPersistParity is the crash-durability acceptance test for
// the collector's -data-dir path: a faultnet-degraded campaign is
// streamed through a real TCP collector whose OnReport callback persists
// every ingested report to a homestore (SyncAlways, so "acknowledged"
// means "synced"), the process crash is simulated with Crash() — no
// flush, no clean close — and the recovered store must reconstruct,
// minute for minute, the whole campaign: every report acknowledged (the
// collector's per-gateway turn keeps a reconnect's replayed tail behind
// the broken connection's still-buffered originals, however slow the
// fsync in the callback makes ingest), every acknowledged report
// recovered, zero duplicates, and every value identical to a fault-free
// clean run.
func TestCollectorPersistParity(t *testing.T) {
	const gw = "gwP"
	reps := buildReports(gw, 1)

	// Fault-free in-memory reference.
	want := runPipeline(t, reps, gw, ReporterConfig{}, nil)
	if want.ingest.ReportsIngested != int64(len(reps)) {
		t.Fatalf("reference run ingested %d/%d", want.ingest.ReportsIngested, len(reps))
	}

	// Faulted run with persistence composed into the ingest callback,
	// exactly as cmd/collector wires it. Small FlushPoints forces several
	// memtable→segment flushes mid-campaign, so recovery crosses the
	// segment/WAL boundary, not just a WAL replay.
	dir := t.TempDir()
	hs, err := store.Open(store.Config{
		Dir:         dir,
		Start:       mon,
		Step:        time.Minute,
		Sync:        store.SyncAlways,
		FlushPoints: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	tstore := NewStore(mon, time.Minute)
	sm := &StreamingMotifs{}
	tstore.OnReport(func(rep gateway.Report) {
		sm.Feed(rep)
		if err := hs.Append(rep); err != nil {
			t.Errorf("append %v: %v", rep.Timestamp, err)
		}
	})
	col, err := NewCollectorConfig("127.0.0.1:0", tstore, CollectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rcfg := ReporterConfig{
		DialAttempts: 10,
		BaseBackoff:  time.Millisecond,
		MaxBackoff:   10 * time.Millisecond,
		Dial: func() (net.Conn, error) {
			raw, err := net.Dial("tcp", col.Addr())
			if err != nil {
				return nil, err
			}
			return faultnet.Wrap(raw, faultnet.Faults{
				GarbageEvery:  29,
				PartialWrites: []int{53},
			}), nil
		},
	}
	rep, err := DialConfig(col.Addr(), rcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reps {
		if err := rep.Send(r); err != nil {
			t.Fatalf("send %v: %v", r.Timestamp, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := rep.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	repStats := rep.Stats()
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}
	wantConns := 1 + repStats.Reconnects
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := col.Stats()
		if st.ConnsOpened == wantConns && st.ActiveConns == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("collector served %d/%d conns (%d active)", st.ConnsOpened, wantConns, st.ActiveConns)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := col.Drain(); err != nil {
		t.Fatal(err)
	}
	if repStats.Reconnects == 0 {
		t.Fatal("fault plan fired no reconnects; the test is not exercising faults")
	}
	colStats := col.Stats()
	if colStats.ReportsIngested != int64(len(reps)) {
		t.Fatalf("faulted collector acknowledged only %d/%d reports (dropped %d, rejected %d)",
			colStats.ReportsIngested, len(reps), colStats.LinesDropped, colStats.IngestErrors)
	}
	liveStats := hs.Stats()
	if liveStats.Segments == 0 {
		t.Fatalf("no segments flushed before the crash (FlushPoints too high?): %+v", liveStats)
	}

	// The acknowledged truth: what the live recorder reconstructed from
	// the reports OnReport saw. Every acknowledged minute must agree with
	// the fault-free reference — faults may shed reports, never corrupt
	// the ones that landed.
	n := len(reps)
	liveIn, liveOut := tstore.Recorder(gw).Series("m1", n)
	live := make([]float64, n)
	acked := 0
	for m := 0; m < n; m++ {
		live[m] = liveIn.Values[m] + liveOut.Values[m]
		if math.IsNaN(live[m]) {
			continue
		}
		acked++
		if live[m] != want.series[m] {
			t.Fatalf("minute %d: acknowledged %g != fault-free %g", m, live[m], want.series[m])
		}
	}
	if acked == 0 {
		t.Fatal("faulted run acknowledged no minutes")
	}

	// Crash: drop the WAL handle on the floor, flush nothing.
	hs.Crash()

	// Recovery must replay every acknowledged report with zero duplicates.
	rec, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	st := rec.Stats()
	if st.DupPoints != 0 {
		t.Errorf("recovery ingested %d duplicate points, want 0", st.DupPoints)
	}
	// Stats.Points counts this session's ingested points, i.e. the WAL
	// tail the crash left behind; segment points survive on disk. Their
	// sum is the full acknowledged set — nothing lost, nothing doubled.
	if recovered := st.SegmentPoints + st.Points; recovered != liveStats.Points {
		t.Errorf("recovered %d points (%d segment + %d WAL), live store acknowledged %d",
			recovered, st.SegmentPoints, st.Points, liveStats.Points)
	}
	if err := rec.Verify(); err != nil {
		t.Errorf("recovered store fails verify: %v", err)
	}
	// Reconstruct the device through the Query API, one direction at a
	// time, padded to the acknowledged length.
	got := make([]float64, n)
	for dir := 0; dir < 2; dir++ {
		res, err := rec.Query(context.Background(), store.QueryRequest{
			Key:         store.Key{Gateway: gw, Device: "m1", Dir: store.Direction(dir)},
			Reconstruct: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.LastIndex < 0 {
			t.Fatal("device m1 lost in recovery")
		}
		for m := 0; m < n; m++ {
			v := math.NaN()
			if m < len(res.Series.Values) {
				v = res.Series.Values[m]
			}
			if dir == 0 {
				got[m] = v
			} else {
				got[m] += v
			}
		}
	}
	if i := sameSeries(live, got); i >= 0 {
		t.Fatalf("minute %d: recovered %g != acknowledged %g", i, got[i], live[i])
	}

	// A second crash/reopen cycle recovers the same set again — recovery
	// is idempotent.
	rec.Crash()
	again, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatalf("second recovery open: %v", err)
	}
	st2 := again.Stats()
	if st2.SegmentPoints+st2.Points != liveStats.Points || st2.DupPoints != 0 {
		t.Errorf("second recovery: %d segment + %d WAL points (%d dups), want %d (0)",
			st2.SegmentPoints, st2.Points, st2.DupPoints, liveStats.Points)
	}
	if err := again.Close(); err != nil {
		t.Fatal(err)
	}
}
