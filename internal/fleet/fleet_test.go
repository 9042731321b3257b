package fleet

import (
	"context"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"homesight/internal/gateway"
	"homesight/internal/livestats"
	"homesight/internal/obs"
	"homesight/internal/store"
	"homesight/internal/telemetry"
	"homesight/internal/telemetry/faultnet"
)

// anchor is the fleet test campaign's minute grid origin (a Monday).
var anchor = time.Date(2026, 3, 2, 0, 0, 0, 0, time.UTC)

// buildCampaign emits minutes×len(gateways) reports, minute-major (the
// arrival interleave of a real fleet: every home reports each minute).
// Two devices per home with distinct traffic shapes so series equality
// is a meaningful check, cumulative counters via the real emitter.
func buildCampaign(gateways []string, minutes int) []gateway.Report {
	ems := make([]*gateway.Emitter, len(gateways))
	for i, gw := range gateways {
		ems[i] = gateway.NewEmitter(gw)
	}
	reps := make([]gateway.Report, 0, minutes*len(gateways))
	for m := 0; m < minutes; m++ {
		ts := anchor.Add(time.Duration(m) * time.Minute)
		for i := range gateways {
			traffic := float64(100 + 13*i + m%60)
			if h := m / 60 % 24; h >= 19 && h < 23 {
				traffic *= 1000 // evening activity
			}
			reps = append(reps, ems[i].Emit(ts, []gateway.DeviceMinute{
				{MAC: "m1", Name: "laptop", InBytes: traffic, OutBytes: traffic / 10},
				{MAC: "m2", Name: "phone", InBytes: traffic / 3, OutBytes: traffic / 30},
			}))
		}
	}
	return reps
}

// expectedPoints indexes a campaign's cumulative counter values:
// key → ascending (ts, value) points, exactly what the partitions
// should hold after ingest.
func expectedPoints(reps []gateway.Report) map[store.Key][]store.Point {
	exp := make(map[store.Key][]store.Point)
	for _, rep := range reps {
		ts := rep.Timestamp.Unix()
		for _, dc := range rep.Devices {
			for dir, val := range [2]uint64{dc.RxBytes, dc.TxBytes} {
				k := store.Key{Gateway: rep.GatewayID, Device: dc.MAC, Dir: store.Direction(dir)}
				exp[k] = append(exp[k], store.Point{Ts: ts, Val: val})
			}
		}
	}
	return exp
}

// mergePartitions opens every live partition under root and returns
// each stored series plus which partition holds each gateway (asserting
// no gateway is split across live partitions).
func mergePartitions(t *testing.T, root string) (map[store.Key][]store.Point, map[string]string) {
	t.Helper()
	dirs, err := LivePartitions(root)
	if err != nil {
		t.Fatalf("LivePartitions: %v", err)
	}
	got := make(map[store.Key][]store.Point)
	owner := make(map[string]string)
	ctx := context.Background()
	for _, dir := range dirs {
		st, err := store.Open(store.Config{Dir: dir})
		if err != nil {
			t.Fatalf("reopening partition %s: %v", dir, err)
		}
		for _, gw := range st.Gateways() {
			if prev, split := owner[gw]; split {
				t.Errorf("gateway %s lives in both %s and %s", gw, prev, dir)
			}
			owner[gw] = dir
			for _, mac := range st.Devices(gw) {
				for _, dir2 := range []store.Direction{store.DirIn, store.DirOut} {
					k := store.Key{Gateway: gw, Device: mac, Dir: dir2}
					res, err := st.Query(ctx, store.QueryRequest{Key: k})
					if err != nil {
						t.Fatalf("query %v: %v", k, err)
					}
					got[k] = append(got[k], res.Points...)
				}
			}
		}
		if err := st.Close(); err != nil {
			t.Fatalf("closing partition %s: %v", dir, err)
		}
	}
	return got, owner
}

func assertSeriesEqual(t *testing.T, got, want map[store.Key][]store.Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("partitions hold %d series, want %d", len(got), len(want))
	}
	for k, wpts := range want {
		gpts := got[k]
		if len(gpts) != len(wpts) {
			t.Errorf("%v: %d points stored, want %d", k, len(gpts), len(wpts))
			continue
		}
		for i := range wpts {
			if gpts[i] != wpts[i] {
				t.Errorf("%v point %d: got %+v, want %+v", k, i, gpts[i], wpts[i])
				break
			}
		}
	}
}

// TestStartCollectsStartupGarbage pins the collection that ends Start:
// garbage made before serving begins must not set the pacer's heap goal
// for the serving phase (FLEET.md, "Fleet").
func TestStartCollectsStartupGarbage(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f, err := Start(Config{Dir: t.TempDir(), Shards: 1, Start: anchor, Step: time.Minute})
	if err != nil {
		t.Fatalf("fleet.Start: %v", err)
	}
	defer f.Close()
	runtime.ReadMemStats(&after)
	if after.NumForcedGC == before.NumForcedGC {
		t.Errorf("fleet.Start forced no collection (NumForcedGC stayed %d)", before.NumForcedGC)
	}
}

// TestFleetEndToEnd proves the fault-free pipeline: router → batch
// frames → shards → partitions reproduces every emitted point exactly,
// with each gateway confined to the shard the ring names.
func TestFleetEndToEnd(t *testing.T) {
	root := t.TempDir()
	f, err := Start(Config{Dir: root, Shards: 2, Start: anchor, Step: time.Minute})
	if err != nil {
		t.Fatalf("fleet.Start: %v", err)
	}
	r, err := NewRouter(RouterConfig{Shards: f.Addrs(), BatchSize: 16})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	gateways := []string{"home-000", "home-001", "home-002", "home-003"}
	reps := buildCampaign(gateways, 240)
	ctx := context.Background()
	for _, rep := range reps {
		if err := r.Send(ctx, rep); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	if err := r.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	rs := r.Stats()
	if rs.ReportsRouted != int64(len(reps)) {
		t.Errorf("ReportsRouted = %d, want %d", rs.ReportsRouted, len(reps))
	}
	if rs.Rebalances != 0 || rs.ReplayedReports != 0 || rs.ReassignedReports != 0 {
		t.Errorf("fault-free run recorded rebalance work: %+v", rs)
	}
	placement := make(map[string]string)
	for _, gw := range gateways {
		placement[gw] = r.ShardFor(gw)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("router Close: %v", err)
	}
	if err := f.Drain(); err != nil {
		t.Fatalf("fleet Drain: %v", err)
	}
	var appended int64
	for i := 0; i < 2; i++ {
		appended += f.Shard(i).Stats().ReportsAppended
		if errs := f.Shard(i).Stats().AppendErrors; errs != 0 {
			t.Errorf("shard %d AppendErrors = %d, want 0", i, errs)
		}
	}
	if appended != int64(len(reps)) {
		t.Errorf("shards appended %d reports, want %d", appended, len(reps))
	}
	got, owner := mergePartitions(t, root)
	assertSeriesEqual(t, got, expectedPoints(reps))
	for gw, dir := range owner {
		if want := PartitionDir(root, shardIndex(t, placement[gw])); dir != want {
			t.Errorf("gateway %s stored in %s, ring says %s", gw, dir, want)
		}
	}
}

// TestFleetIngestsEveryReportAtAnyShardCount drives 1, 2 and 4 shards
// from four concurrent routers over disjoint gateways: every report is
// appended exactly once and every point lands in the partitions.
func TestFleetIngestsEveryReportAtAnyShardCount(t *testing.T) {
	const routers, gatewaysPerRouter, minutes = 4, 2, 120
	for _, shards := range []int{1, 2, 4} {
		root := t.TempDir()
		f, err := Start(Config{Dir: root, Shards: shards, Start: anchor, Step: time.Minute})
		if err != nil {
			t.Fatalf("%d shards: fleet.Start: %v", shards, err)
		}
		var all []gateway.Report
		var wg sync.WaitGroup
		errs := make(chan error, routers)
		for d := 0; d < routers; d++ {
			gws := make([]string, gatewaysPerRouter)
			for g := range gws {
				gws[g] = fmt.Sprintf("home-%03d", d*gatewaysPerRouter+g)
			}
			reps := buildCampaign(gws, minutes)
			all = append(all, reps...)
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs <- sendAll(f.Addrs(), reps)
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatalf("%d shards: %v", shards, err)
			}
		}
		if err := f.Drain(); err != nil {
			t.Fatalf("%d shards: fleet Drain: %v", shards, err)
		}
		var appended, appendErrs int64
		for i := 0; i < shards; i++ {
			st := f.Shard(i).Stats()
			appended += st.ReportsAppended
			appendErrs += st.AppendErrors
		}
		if appended != int64(len(all)) || appendErrs != 0 {
			t.Errorf("%d shards: %d reports appended, %d append errors; want %d and 0", shards, appended, appendErrs, len(all))
		}
		got, _ := mergePartitions(t, root)
		assertSeriesEqual(t, got, expectedPoints(all))
	}
}

// sendAll routes reps through a router of its own and waits for every ack.
func sendAll(shards []ShardAddr, reps []gateway.Report) error {
	r, err := NewRouter(RouterConfig{Shards: shards, BatchSize: 64})
	if err != nil {
		return err
	}
	ctx := context.Background()
	for _, rep := range reps {
		if err := r.Send(ctx, rep); err != nil {
			_ = r.Close()
			return err
		}
	}
	if err := r.Flush(ctx); err != nil {
		_ = r.Close()
		return err
	}
	return r.Close()
}

// TestFleetLiveMetricsSum pins the live family in fleet mode: shard
// trackers sharing one livestats.Metrics add up, so the exported series
// count every report of the campaign once and every home once.
func TestFleetLiveMetricsSum(t *testing.T) {
	reg := obs.NewRegistry()
	m := livestats.NewMetrics(reg)
	f, err := Start(Config{
		Dir: t.TempDir(), Shards: 2, Start: anchor, Step: time.Minute,
		Live: &livestats.Config{Metrics: m},
	})
	if err != nil {
		t.Fatalf("fleet.Start: %v", err)
	}
	r, err := NewRouter(RouterConfig{Shards: f.Addrs(), BatchSize: 16})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	gateways := []string{"home-000", "home-001", "home-002", "home-003", "home-004", "home-005"}
	reps := buildCampaign(gateways, 60)
	ctx := context.Background()
	for _, rep := range reps {
		if err := r.Send(ctx, rep); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	if err := r.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("router Close: %v", err)
	}
	if err := f.Drain(); err != nil {
		t.Fatalf("fleet Drain: %v", err)
	}
	for i := 0; i < 2; i++ {
		if len(f.Shard(i).tracker.Homes()) == 0 {
			t.Fatalf("%s owns no gateway; the sum checks nothing", f.Shard(i).Name())
		}
	}
	if got := m.Reports.Value(); got != int64(len(reps)) {
		t.Errorf("homesight_live_reports_total = %d, want %d (every report of the campaign)", got, len(reps))
	}
	if got := m.Homes.Value(); got != float64(len(gateways)) {
		t.Errorf("homesight_live_homes = %v, want %d", got, len(gateways))
	}
}

// TestLiveGridIsThePartitions: a partition reopened under a later
// configured Start keeps the anchor in its meta.json, and so does its
// tracker — the rebuild counts every stored report, none as stale.
func TestLiveGridIsThePartitions(t *testing.T) {
	root := t.TempDir()
	st, err := store.Open(store.Config{Dir: PartitionDir(root, 0), Start: anchor, Step: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	reps := buildCampaign([]string{"home-000"}, 2*24*60)
	if _, err := st.AppendBatch(reps); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := Start(Config{
		Dir: root, Shards: 1, Start: anchor.Add(24 * time.Hour), Step: time.Minute,
		Live: &livestats.Config{},
	})
	if err != nil {
		t.Fatalf("fleet.Start: %v", err)
	}
	defer f.Close()
	snap, ok := f.LiveSnapshot("home-000")
	if !ok {
		t.Fatal("no live state for home-000 after the rebuild")
	}
	if snap.Reports != int64(len(reps)) {
		t.Errorf("live snapshot counts %d reports, the partition stores %d", snap.Reports, len(reps))
	}
}

func shardIndex(t *testing.T, name string) int {
	t.Helper()
	var i int
	if _, err := fmt.Sscanf(name, "shard-%d", &i); err != nil {
		t.Fatalf("bad shard name %q", name)
	}
	return i
}

// TestFaultShardKill is the fleet's acceptance campaign, per the
// TestFault* discipline: kill a shard mid-load (with faultnet faults on
// the surviving transports), and prove zero acknowledged-report loss
// with exact accounting. SyncAlways makes Append's return the
// acknowledgement — everything acknowledged is durable, so catch-up
// replay plus watermark dedup must reproduce every emitted point
// exactly once across the surviving partitions.
func TestFaultShardKill(t *testing.T) {
	root := t.TempDir()
	metrics := NewFleetMetrics(obs.NewRegistry())
	f, err := Start(Config{
		Dir: root, Shards: 3, Start: anchor, Step: time.Minute,
		Sync: store.SyncAlways, Metrics: metrics,
	})
	if err != nil {
		t.Fatalf("fleet.Start: %v", err)
	}
	// Faultnet on the router's transports: each shard's first
	// connection fails its 7th write cleanly, so reconnect +
	// resend-tail runs on the survivors too, not just on the killed
	// shard. (Only the first connection is faulted: the plan re-arms
	// per connection, and faulting every reconnect forever would starve
	// the retry budget and fake a healthy shard's death.)
	faulted := make(map[string]bool)
	var faultedMu sync.Mutex
	r, err := NewRouter(RouterConfig{
		Shards:    f.Addrs(),
		BatchSize: 32,
		Replay:    f.ReplayFunc(),
		Metrics:   metrics,
		Reporter: telemetry.ReporterConfig{
			BaseBackoff: time.Millisecond,
			MaxBackoff:  8 * time.Millisecond,
			Window:      8,
		},
		DialShard: func(addr string) (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			faultedMu.Lock()
			first := !faulted[addr]
			faulted[addr] = true
			faultedMu.Unlock()
			if first {
				return faultnet.Wrap(conn, faultnet.Faults{FailWrites: []int{7}}), nil
			}
			return conn, nil
		},
	})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	gateways := make([]string, 8)
	for i := range gateways {
		gateways[i] = fmt.Sprintf("home-%03d", i)
	}
	reps := buildCampaign(gateways, 360)
	victim := r.ShardFor(gateways[0]) // guaranteed to own ≥ 1 gateway
	victimIdx := shardIndex(t, victim)

	ctx := context.Background()
	killAt := len(reps) * 2 / 5
	for i, rep := range reps {
		if i == killAt {
			f.Kill(victimIdx)
		}
		if err := r.Send(ctx, rep); err != nil {
			t.Fatalf("Send report %d: %v", i, err)
		}
	}
	if err := r.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	rs := r.Stats()
	if err := r.Close(); err != nil {
		t.Fatalf("router Close: %v", err)
	}
	if err := f.Drain(); err != nil {
		t.Fatalf("fleet Drain: %v", err)
	}

	// The rebalance happened, exactly once, and was absorbed silently.
	if rs.Rebalances != 1 {
		t.Fatalf("Rebalances = %d, want 1 (stats: %+v)", rs.Rebalances, rs)
	}
	if rs.ReplayedReports == 0 {
		t.Error("no reports replayed from the dead partition")
	}

	// Exact routing accounting: every report entered the ring once per
	// routing decision.
	if want := int64(len(reps)) + rs.ReplayedReports + rs.ReassignedReports; rs.ReportsRouted != want {
		t.Errorf("ReportsRouted = %d, want %d (= %d sent + %d replayed + %d reassigned)",
			rs.ReportsRouted, want, len(reps), rs.ReplayedReports, rs.ReassignedReports)
	}

	// The dead partition retired; exactly 2 of 3 partitions stay live.
	if _, err := os.Stat(PartitionDir(root, victimIdx) + ".retired"); err != nil {
		t.Errorf("dead partition not retired: %v", err)
	}
	dirs, err := LivePartitions(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 2 {
		t.Fatalf("%d live partitions, want 2: %v", len(dirs), dirs)
	}

	// Zero acknowledged-report loss, exactly once: the surviving
	// partitions together hold every emitted point, each exactly once,
	// and no gateway is split.
	got, owner := mergePartitions(t, root)
	assertSeriesEqual(t, got, expectedPoints(reps))
	if len(owner) != len(gateways) {
		t.Errorf("%d gateways stored, want %d", len(owner), len(gateways))
	}
}

// failingConn fails every write once *fail is set, before any byte
// reaches the wire.
type failingConn struct {
	net.Conn
	fail *atomic.Bool
}

func (c failingConn) Write(p []byte) (int, error) {
	if c.fail.Load() {
		return 0, faultnet.ErrInjected
	}
	return c.Conn.Write(p)
}

// TestFaultShardLossDuringFlush: the last shard in name order is found
// dead while the final Flush ships its pending batch, so the rebalance
// puts its replayed history and its reassigned batch on survivors the
// pass has already shipped. Flush must still be the durability
// barrier: nil only once every report is appended by a live shard, and
// Close then finds nothing unbatched. The batch size never fills, so
// every report waits in a pending batch until a Flush.
func TestFaultShardLossDuringFlush(t *testing.T) {
	root := t.TempDir()
	metrics := NewFleetMetrics(obs.NewRegistry())
	f, err := Start(Config{
		Dir: root, Shards: 3, Start: anchor, Step: time.Minute,
		Sync: store.SyncAlways, Metrics: metrics,
	})
	if err != nil {
		t.Fatalf("fleet.Start: %v", err)
	}
	const victimIdx = 2 // last in name order: shipped after both survivors
	victimAddr := f.Addrs()[victimIdx].Addr
	var fail atomic.Bool
	r, err := NewRouter(RouterConfig{
		Shards:    f.Addrs(),
		BatchSize: 1 << 20,
		Replay:    f.ReplayFunc(),
		Metrics:   metrics,
		Reporter: telemetry.ReporterConfig{
			BaseBackoff:  time.Millisecond,
			MaxBackoff:   2 * time.Millisecond,
			DialAttempts: 2,
		},
		DialShard: func(addr string) (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil || addr != victimAddr {
				return conn, err
			}
			return failingConn{Conn: conn, fail: &fail}, nil
		},
	})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	gateways := make([]string, 8)
	for i := range gateways {
		gateways[i] = fmt.Sprintf("home-%03d", i)
	}
	reps := buildCampaign(gateways, 120)
	owned := map[string]bool{}
	for _, gw := range gateways {
		owned[r.ShardFor(gw)] = true
	}
	if len(owned) != 3 {
		t.Fatalf("gateways land on %d shards, want all 3: the scenario needs a loaded victim and two survivors", len(owned))
	}

	ctx := context.Background()
	half := len(reps) / 2
	for _, rep := range reps[:half] {
		if err := r.Send(ctx, rep); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	if err := r.Flush(ctx); err != nil {
		t.Fatalf("first Flush: %v", err)
	}
	for _, rep := range reps[half:] {
		if err := r.Send(ctx, rep); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	fail.Store(true)
	f.Kill(victimIdx)
	if err := r.Flush(ctx); err != nil {
		t.Fatalf("final Flush: %v", err)
	}
	rs := r.Stats()
	if err := r.Close(); err != nil {
		t.Fatalf("router Close after a nil Flush: %v", err)
	}
	if err := f.Drain(); err != nil {
		t.Fatalf("fleet Drain: %v", err)
	}

	if rs.Rebalances != 1 || rs.ReplayedReports == 0 || rs.ReassignedReports == 0 {
		t.Fatalf("want one rebalance that both replays and reassigns, got %+v", rs)
	}
	if want := int64(len(reps)) + rs.ReplayedReports + rs.ReassignedReports; rs.ReportsRouted != want {
		t.Errorf("ReportsRouted = %d, want %d (= %d sent + %d replayed + %d reassigned)",
			rs.ReportsRouted, want, len(reps), rs.ReplayedReports, rs.ReassignedReports)
	}
	got, owner := mergePartitions(t, root)
	assertSeriesEqual(t, got, expectedPoints(reps))
	if len(owner) != len(gateways) {
		t.Errorf("%d gateways stored, want %d", len(owner), len(gateways))
	}
}

// TestRouterLastShardLoss pins the terminal error: when the final
// shard dies there is nowhere to rebalance to, and Send must say so
// rather than buffer silently.
func TestRouterLastShardLoss(t *testing.T) {
	root := t.TempDir()
	f, err := Start(Config{Dir: root, Shards: 1, Start: anchor, Step: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := NewRouter(RouterConfig{
		Shards:    f.Addrs(),
		BatchSize: 4,
		Reporter: telemetry.ReporterConfig{
			BaseBackoff:  time.Millisecond,
			MaxBackoff:   2 * time.Millisecond,
			DialAttempts: 2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()
	reps := buildCampaign([]string{"home-000"}, 64)
	if err := r.Send(ctx, reps[0]); err != nil {
		t.Fatalf("Send before kill: %v", err)
	}
	f.Kill(0)
	var sendErr error
	for _, rep := range reps[1:] {
		if sendErr = r.Send(ctx, rep); sendErr != nil {
			break
		}
	}
	if sendErr == nil {
		sendErr = r.Flush(ctx)
	}
	if sendErr == nil {
		t.Fatal("no error after losing the last shard")
	}
	if got := r.Stats().Rebalances; got != 1 {
		t.Errorf("Rebalances = %d, want 1", got)
	}
	if live := r.Live(); len(live) != 0 {
		t.Errorf("Live() = %v, want empty", live)
	}
}
