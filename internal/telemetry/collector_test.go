package telemetry_test

// The wire protocol end to end, against its one receiver: a single-node
// collector is a 1-shard fleet (`homesight collector`), so these tests start
// exactly that and talk to its shard over real TCP.

import (
	"context"
	"errors"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"homesight/internal/fleet"
	"homesight/internal/gateway"
	"homesight/internal/store"
	"homesight/internal/telemetry"
	"homesight/internal/telemetry/faultnet"
)

var mon = time.Date(2014, 3, 17, 0, 0, 0, 0, time.UTC)

// campaign emits one report per minute for gw with three devices of
// distinct shapes: a dominant streamer with evening activity, a
// correlated-but-smaller phone and a constant sensor (degenerate
// coefficients ride through the whole pipeline).
func campaign(gw string, minutes int) []gateway.Report {
	em := gateway.NewEmitter(gw)
	reps := make([]gateway.Report, 0, minutes)
	for m := 0; m < minutes; m++ {
		traffic := float64(100 + m%60)
		if h := m / 60 % 24; h >= 19 && h < 23 {
			traffic *= 1000
		}
		reps = append(reps, em.Emit(mon.Add(time.Duration(m)*time.Minute), []gateway.DeviceMinute{
			{MAC: "m1", Name: "tv", InBytes: traffic, OutBytes: traffic / 10},
			{MAC: "m2", Name: "phone", InBytes: traffic / 3, OutBytes: traffic / 30},
			{MAC: "m3", Name: "sensor", InBytes: 40, OutBytes: 4},
		}))
	}
	return reps
}

// startCollector starts what `homesight collector` runs: a 1-shard fleet over a
// fresh root, anchored at mon.
func startCollector(t *testing.T, cfg fleet.Config) *fleet.Fleet {
	t.Helper()
	cfg.Dir, cfg.Shards, cfg.Start, cfg.Step = t.TempDir(), 1, mon, time.Minute
	f, err := fleet.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	return f
}

// partitionReports reopens a closed (or crashed) partition and returns
// gw's report stream as the store reconstructs it.
func partitionReports(t *testing.T, dir, gw string) []gateway.Report {
	t.Helper()
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopening %s: %v", dir, err)
	}
	defer st.Close()
	reps, err := st.ReconstructReports(context.Background(), gw)
	if err != nil {
		t.Fatal(err)
	}
	return reps
}

// assertSameReports demands the stored stream equal the sent one, point
// for point.
func assertSameReports(t *testing.T, got, want []gateway.Report) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("partition holds %d reports, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("report %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// writeFrames writes frames on conn and reads one ack per frame.
func writeFrames(t *testing.T, conn net.Conn, frames ...[]gateway.Report) {
	t.Helper()
	for _, reps := range frames {
		if _, err := conn.Write(telemetry.AppendBatchFrame(nil, reps)); err != nil {
			t.Fatal(err)
		}
	}
	acks := make([]byte, len(frames))
	if _, err := io.ReadFull(conn, acks); err != nil {
		t.Fatalf("reading %d acks: %v", len(frames), err)
	}
	for i, b := range acks {
		if b != telemetry.BatchAck {
			t.Fatalf("ack %d = %#x", i, b)
		}
	}
}

// faultedDialer dials addr and wraps the n-th connection in
// plans[n%len(plans)], so every reconnect meets a fault again. The
// reporter dials from its caller's goroutine, so conns needs no lock.
type faultedDialer struct {
	addr  string
	plans []faultnet.Faults
	conns []*faultnet.Conn
}

func (d *faultedDialer) dial() (net.Conn, error) {
	raw, err := net.Dial("tcp", d.addr)
	if err != nil {
		return nil, err
	}
	fc := faultnet.Wrap(raw, d.plans[len(d.conns)%len(d.plans)])
	d.conns = append(d.conns, fc)
	return fc, nil
}

// injected sums the faults fired over every connection dialed so far.
func (d *faultedDialer) injected() faultnet.Injections {
	var sum faultnet.Injections
	for _, c := range d.conns {
		inj := c.Injected()
		sum.Fails += inj.Fails
		sum.Partials += inj.Partials
		sum.GarbageLines += inj.GarbageLines
		sum.Writes += inj.Writes
	}
	return sum
}

// streamFaulted sends reps to addr in frames of four through a batch
// reporter whose connections take turns at plans, flushes, closes, and
// returns the faults that fired. It fails unless the faults made the
// reporter dial again.
func streamFaulted(t *testing.T, addr string, reps []gateway.Report, plans ...faultnet.Faults) faultnet.Injections {
	t.Helper()
	d := &faultedDialer{addr: addr, plans: plans}
	rep, err := telemetry.DialBatch(addr, telemetry.ReporterConfig{
		BaseBackoff: time.Millisecond,
		MaxBackoff:  10 * time.Millisecond,
		Dial:        d.dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for lo := 0; lo < len(reps); lo += 4 {
		if err := rep.Send(ctx, reps[lo:min(lo+4, len(reps))]); err != nil {
			t.Fatalf("send %d: %v", lo, err)
		}
	}
	if err := rep.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}
	if len(d.conns) < 2 {
		t.Fatalf("%d dials: the fault plans fired no reconnect", len(d.conns))
	}
	return d.injected()
}

// awaitHangUp reads until the collector closes conn (EOF, or a reset
// when it hung up on unread bytes).
func awaitHangUp(t *testing.T, conn net.Conn) {
	t.Helper()
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	var ne net.Error
	if _, err := io.ReadAll(conn); errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("the collector never hung up")
	}
}

func TestCollectorEndToEnd(t *testing.T) {
	f := startCollector(t, fleet.Config{})
	addr := f.Shard(0).Addr()
	const gateways, minutes = 4, 30
	sent := make([][]gateway.Report, gateways)
	var wg sync.WaitGroup
	for g := 0; g < gateways; g++ {
		sent[g] = campaign(string(rune('a'+g))+"-gw", minutes)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rep, err := telemetry.DialBatch(addr, telemetry.ReporterConfig{Seed: int64(g) + 1})
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer rep.Close()
			ctx := context.Background()
			for lo := 0; lo < minutes; lo += 10 {
				if err := rep.Send(ctx, sent[g][lo:lo+10]); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
			if err := rep.Flush(ctx); err != nil {
				t.Errorf("flush: %v", err)
			}
		}(g)
	}
	wg.Wait()
	if err := f.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := f.Shard(0).Stats(); st.ReportsAppended != gateways*minutes || st.ConnsOpened != gateways {
		t.Errorf("stats %+v: want %d reports over %d connections", st, gateways*minutes, gateways)
	}
	for g := range sent {
		assertSameReports(t, partitionReports(t, f.Shard(0).Dir(), sent[g][0].GatewayID), sent[g])
	}
}

func TestCollectorCloseIsIdempotentish(t *testing.T) {
	f := startCollector(t, fleet.Config{})
	s := f.Shard(0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != telemetry.ErrClosed {
		t.Errorf("second close = %v, want ErrClosed", err)
	}
	if err := s.Drain(); err != telemetry.ErrClosed {
		t.Errorf("drain after close = %v, want ErrClosed", err)
	}
	if err := f.Close(); err != nil {
		t.Errorf("fleet close over a closed shard = %v, want nil", err)
	}
}

// TestCollectorStatsEndToEnd reconciles the shard's counters against a
// known workload on one connection: good frames, then a corrupt frame,
// which closes the connection.
func TestCollectorStatsEndToEnd(t *testing.T) {
	f := startCollector(t, fleet.Config{})
	conn, err := net.Dial("tcp", f.Shard(0).Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	reps := campaign("gwS", 10)
	writeFrames(t, conn, reps[:4], reps[4:])
	corrupt := telemetry.AppendBatchFrame(nil, reps[:1])
	corrupt[len(corrupt)-1] ^= 0xff
	if _, err := conn.Write(corrupt); err != nil {
		t.Fatal(err)
	}
	awaitHangUp(t, conn)
	want := fleet.ShardStats{ReportsAppended: 10, FramesDecoded: 2, FramesRejected: 1, ConnsOpened: 1}
	if st := f.Shard(0).Stats(); st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
}

// TestCollectorReportsIngestErrors: a report the store refuses for its
// content (no gateway id) is counted and its frame acked, so it cannot
// wedge its sender, and the connection carries on.
func TestCollectorReportsIngestErrors(t *testing.T) {
	f := startCollector(t, fleet.Config{})
	conn, err := net.Dial("tcp", f.Shard(0).Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	reps := campaign("gwE", 3)
	poison := gateway.Report{Timestamp: mon, Devices: reps[0].Devices}
	writeFrames(t, conn, []gateway.Report{reps[0], poison}, reps[1:])
	if st := f.Shard(0).Stats(); st.AppendErrors != 1 || st.ReportsAppended != 3 || st.FramesDecoded != 2 {
		t.Errorf("stats = %+v, want 1 append error and 3 reports over 2 frames", st)
	}
}

// TestCollectorSurvivesMalformedStream: garbage on one connection closes
// that connection, and a healthy client is served afterwards.
func TestCollectorSurvivesMalformedStream(t *testing.T) {
	f := startCollector(t, fleet.Config{})
	addr := f.Shard(0).Addr()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(faultnet.DefaultGarbage); err != nil {
		t.Fatal(err)
	}
	awaitHangUp(t, conn)
	rep, err := telemetry.DialBatch(addr, telemetry.ReporterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	ctx := context.Background()
	if err := rep.Send(ctx, campaign("gwX", 2)); err != nil {
		t.Fatal(err)
	}
	if err := rep.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if st := f.Shard(0).Stats(); st.FramesRejected != 1 || st.ReportsAppended != 2 {
		t.Errorf("stats = %+v, want 1 rejected frame and 2 appended reports", st)
	}
}

// TestCollectorPersistParity is the crash-durability test for a
// collector restarted over its -data-dir. The partition already holds
// the first half of a campaign in segments; the collector reopens it
// (SyncAlways, so an ack means synced), takes the second half over
// connections that carry garbage or tear a frame, and is killed after
// Flush: no flush, no clean close. Recovery must cross the segment/WAL
// boundary to the whole campaign, each point once, and a second crash
// and reopen must recover the same set.
func TestCollectorPersistParity(t *testing.T) {
	const gw = "gwP"
	reps := campaign(gw, 720)
	half := len(reps) / 2
	root := t.TempDir()
	dir := fleet.PartitionDir(root, 0)

	seed, err := store.Open(store.Config{Dir: dir, Start: mon, Step: time.Minute, Sync: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reps[:half] {
		if err := seed.Append(rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Flush(); err != nil {
		t.Fatal(err)
	}
	segPoints := seed.Stats().Points
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := fleet.Start(fleet.Config{Dir: root, Shards: 1, Start: mon, Step: time.Minute, Sync: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() }) // ErrClosed after Kill is expected
	shard := f.Shard(0)
	inj := streamFaulted(t, shard.Addr(), reps[half:],
		faultnet.Faults{GarbageEvery: 13},
		faultnet.Faults{PartialWrites: []int{11}},
	)
	if inj.GarbageLines == 0 || inj.Partials == 0 {
		t.Fatalf("injections %+v: want both garbage and a torn frame", inj)
	}
	if st := shard.Stats(); st.FramesRejected == 0 || st.AppendErrors != 0 {
		t.Errorf("stats %+v: want rejected frames and no append errors", st)
	}
	live := shard.StoreStats()
	if live.DupPoints == 0 {
		t.Error("no replayed point reached the partition; the run exercised no redelivery")
	}
	f.Kill(0)

	for cycle := 0; cycle < 2; cycle++ {
		rec, err := store.Open(store.Config{Dir: dir})
		if err != nil {
			t.Fatalf("recovery %d: %v", cycle, err)
		}
		// Stats.Points counts this session's ingested points, i.e. the
		// WAL tail the crash left behind; the seeded half lives in
		// segments. The WAL logs replayed frames as they arrived, so
		// recovery must drop exactly the duplicates the live shard did.
		st := rec.Stats()
		if st.SegmentPoints != segPoints || st.Points != live.Points || st.DupPoints != live.DupPoints {
			t.Errorf("recovery %d: %d segment + %d WAL points (%d dups), want %d + %d (%d)",
				cycle, st.SegmentPoints, st.Points, st.DupPoints, segPoints, live.Points, live.DupPoints)
		}
		if err := rec.Verify(); err != nil {
			t.Errorf("recovery %d fails verify: %v", cycle, err)
		}
		got, err := rec.ReconstructReports(context.Background(), gw)
		if err != nil {
			t.Fatal(err)
		}
		assertSameReports(t, got, reps)
		rec.Crash()
	}
}
