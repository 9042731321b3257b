package telemetry

// The deterministic fault-injection suite (`make test-faults` runs every
// TestFault* under -race). The acceptance bar: with injected connection
// breaks, garbage lines, partial writes and delayed flushes, the
// collector loses zero well-formed in-order reports, the streaming stage
// emits the same motif set as a fault-free run, and the ingest counters
// account for every dropped line and shed error.

import (
	"context"
	"encoding/json"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"homesight/internal/gateway"
	"homesight/internal/obs"
	"homesight/internal/telemetry/faultnet"
)

// gatewayJSONLine renders one report in the wire format (JSON + newline)
// for tests that write raw bytes to a collector socket.
func gatewayJSONLine(t *testing.T, rep gateway.Report) []byte {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// buildReports emits a deterministic campaign: `days` full days of
// per-minute reports for one device with an evening activity pattern.
func buildReports(gatewayID string, days int) []gateway.Report {
	em := gateway.NewEmitter(gatewayID)
	var reps []gateway.Report
	for d := 0; d < days; d++ {
		for m := 0; m < 24*60; m++ {
			ts := mon.AddDate(0, 0, d).Add(time.Duration(m) * time.Minute)
			traffic := 120.0 // background chatter
			if m/60 >= 19 && m/60 < 23 {
				traffic = 2e6 // evening activity
			}
			reps = append(reps, em.Emit(ts, []gateway.DeviceMinute{
				{MAC: "m1", InBytes: traffic, OutBytes: traffic / 10},
			}))
		}
	}
	return reps
}

// pipelineResult is everything a fault test needs to compare a faulted
// run against the fault-free reference.
type pipelineResult struct {
	ingest   IngestStats
	metrics  *IngestMetrics // registry-backed instruments of the same run
	stream   StreamStats
	reporter ReporterStats
	motifs   []motifSummary
	series   []float64
	errs     int // errors received on Errs (the rest are counted shed)
}

type motifSummary struct {
	support  int
	gateways int
}

// runPipeline streams reps through a real TCP collector. When wrap is
// non-nil every dialed connection is passed through it (fault
// injection); the reporter uses millisecond backoff to keep the suite
// fast.
func runPipeline(t *testing.T, reps []gateway.Report, gatewayID string, rcfg ReporterConfig, wrap func(net.Conn) net.Conn) pipelineResult {
	t.Helper()
	store := NewStore(mon, time.Minute)
	sm := &StreamingMotifs{}
	store.OnReport(sm.Feed)
	metrics := NewIngestMetrics(obs.NewRegistry())
	col, err := NewCollectorConfig("127.0.0.1:0", store, CollectorConfig{Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	if wrap != nil {
		addr := col.Addr()
		rcfg.Dial = func() (net.Conn, error) {
			raw, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return wrap(raw), nil
		}
	}
	rcfg.BaseBackoff = time.Millisecond
	rcfg.MaxBackoff = 10 * time.Millisecond
	rep, err := DialConfig(col.Addr(), rcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reps {
		if err := rep.Send(r); err != nil {
			t.Fatalf("send %v: %v", r.Timestamp, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rep.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	repStats := rep.Stats()
	if err := rep.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Every dialed connection (initial + one per reconnect) must be
	// accepted and read to EOF before the listener goes away: a freshly
	// reconnected conn can still sit in the accept backlog when the
	// reporter finishes, and Drain would discard it with the listener.
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
	sm.Flush()

	res := pipelineResult{ingest: col.Stats(), metrics: metrics, stream: sm.Stats(), reporter: repStats}
	for _, m := range sm.Motifs() {
		res.motifs = append(res.motifs, motifSummary{support: m.Support(), gateways: len(m.Gateways())})
	}
	in, out := store.Recorder(gatewayID).Series("m1", len(reps))
	res.series = make([]float64, len(reps))
	for i := range res.series {
		res.series[i] = in.Values[i] + out.Values[i]
	}
	for {
		select {
		case <-col.Errs:
			res.errs++
			continue
		default:
		}
		break
	}
	return res
}

// sameSeries reports the first index where two reconstructions diverge
// (NaN compares equal to NaN), or -1.
func sameSeries(a, b []float64) int {
	for i := range a {
		if math.IsNaN(a[i]) != math.IsNaN(b[i]) || (!math.IsNaN(a[i]) && a[i] != b[i]) {
			return i
		}
	}
	return -1
}

// TestFaultInjectionPipeline is the acceptance test: a faulted run must
// reconstruct the identical series and motif set as the fault-free run,
// with every injected fault accounted for in the counters.
func TestFaultInjectionPipeline(t *testing.T) {
	const gw = "gwF"
	reps := buildReports(gw, 2)

	// Fault-free reference run.
	want := runPipeline(t, reps, gw, ReporterConfig{}, nil)
	if want.ingest.ReportsIngested != int64(len(reps)) {
		t.Fatalf("reference run ingested %d/%d", want.ingest.ReportsIngested, len(reps))
	}
	if want.stream.DaysEmitted != 2 || len(want.motifs) == 0 {
		t.Fatalf("reference run: %d days, motifs %v", want.stream.DaysEmitted, want.motifs)
	}

	// Faulted run: every connection injects a garbage line before every
	// 29th write and truncates its 54th write mid-report; the reporter
	// tears the connection down, reconnects and replays its resend tail.
	var (
		connsMu sync.Mutex
		conns   []*faultnet.Conn
	)
	got := runPipeline(t, reps, gw, ReporterConfig{DialAttempts: 10}, func(raw net.Conn) net.Conn {
		fc := faultnet.Wrap(raw, faultnet.Faults{
			GarbageEvery:  29,
			PartialWrites: []int{53},
		})
		connsMu.Lock()
		conns = append(conns, fc)
		connsMu.Unlock()
		return fc
	})

	// Zero well-formed in-order reports lost: identical reconstruction.
	if i := sameSeries(want.series, got.series); i >= 0 {
		t.Fatalf("minute %d: faulted %g != fault-free %g", i, got.series[i], want.series[i])
	}
	// Same motif set as the fault-free run.
	if len(got.motifs) != len(want.motifs) {
		t.Fatalf("faulted motifs %v != fault-free %v", got.motifs, want.motifs)
	}
	for i := range got.motifs {
		if got.motifs[i] != want.motifs[i] {
			t.Fatalf("motif %d: faulted %+v != fault-free %+v", i, got.motifs[i], want.motifs[i])
		}
	}

	// Every injected fault is accounted for.
	var garbage, partials int
	connsMu.Lock()
	for _, fc := range conns {
		inj := fc.Injected()
		garbage += inj.GarbageLines
		partials += inj.Partials
	}
	connsMu.Unlock()
	if partials == 0 || garbage == 0 {
		t.Fatalf("fault plan fired nothing: %d partials, %d garbage lines", partials, garbage)
	}
	if got.ingest.LinesDropped != int64(garbage+partials) {
		t.Errorf("LinesDropped = %d, want %d garbage + %d truncated", got.ingest.LinesDropped, garbage, partials)
	}
	if got.ingest.ReportsIngested != int64(len(reps)) {
		t.Errorf("ReportsIngested = %d, want %d", got.ingest.ReportsIngested, len(reps))
	}
	// Replayed tail reports arrive as duplicates and are rejected by the
	// recorder: successful writes minus unique reports.
	wantDups := got.reporter.ReportsSent - int64(len(reps))
	if got.ingest.IngestErrors != wantDups {
		t.Errorf("IngestErrors = %d, want %d replayed duplicates", got.ingest.IngestErrors, wantDups)
	}
	// Every dropped line and rejected report produced exactly one error:
	// received on Errs or counted as shed.
	if int64(got.errs)+got.ingest.ErrorsShed != got.ingest.LinesDropped+got.ingest.IngestErrors {
		t.Errorf("error accounting: %d received + %d shed != %d dropped + %d rejected",
			got.errs, got.ingest.ErrorsShed, got.ingest.LinesDropped, got.ingest.IngestErrors)
	}
	if got.reporter.Reconnects == 0 || got.reporter.WriteErrors == 0 {
		t.Errorf("reporter stats did not register faults: %+v", got.reporter)
	}
}

// TestFaultIngestMetricsParity pins the exported-metrics contract: under
// the same faultnet plan as TestFaultInjectionPipeline, every
// homesight_ingest_* series must match the IngestStats snapshot exactly
// — the Prometheus view and the programmatic view are one accounting.
func TestFaultIngestMetricsParity(t *testing.T) {
	const gw = "gwM"
	reps := buildReports(gw, 2)
	got := runPipeline(t, reps, gw, ReporterConfig{DialAttempts: 10}, func(raw net.Conn) net.Conn {
		return faultnet.Wrap(raw, faultnet.Faults{
			GarbageEvery:  29,
			PartialWrites: []int{53},
		})
	})
	st, m := got.ingest, got.metrics
	if st.LinesDropped == 0 || st.IngestErrors == 0 {
		t.Fatalf("fault plan fired nothing: %+v", st)
	}
	checks := []struct {
		name string
		got  int64
		want int64
	}{
		{`homesight_ingest_dropped_total{reason="malformed"}`, m.DroppedMalformed.Value(), st.LinesDropped},
		{`homesight_ingest_dropped_total{reason="rejected"}`, m.DroppedRejected.Value(), st.IngestErrors},
		{`homesight_ingest_dropped_total{reason="shed"}`, m.DroppedShed.Value(), st.ErrorsShed},
		{"homesight_ingest_reports_total", m.Reports.Value(), st.ReportsIngested},
		{"homesight_ingest_conns_total", m.Conns.Value(), st.ConnsOpened},
		{"homesight_ingest_active_conns", int64(m.ActiveConns.Value()), st.ActiveConns},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d (IngestStats)", c.name, c.got, c.want)
		}
	}
	// Every dequeued report — ingested or rejected — was timed.
	if n := m.Latency.Count(); n != st.ReportsIngested+st.IngestErrors {
		t.Errorf("latency observations = %d, want %d ingested + %d rejected",
			n, st.ReportsIngested, st.IngestErrors)
	}
	// Resyncs are the same events as malformed drops, seen from the
	// connection reader's side.
	if m.Resyncs.Value() != st.LinesDropped {
		t.Errorf("resyncs = %d, want %d malformed drops", m.Resyncs.Value(), st.LinesDropped)
	}
}

// TestFaultCleanBreaks injects write failures that lose the report
// before the wire: the resend path must deliver every report.
func TestFaultCleanBreaks(t *testing.T) {
	const gw = "gwG"
	reps := buildReports(gw, 1)
	want := runPipeline(t, reps, gw, ReporterConfig{}, nil)
	got := runPipeline(t, reps, gw, ReporterConfig{DialAttempts: 10}, func(raw net.Conn) net.Conn {
		return faultnet.Wrap(raw, faultnet.Faults{FailWrites: []int{200}})
	})
	if i := sameSeries(want.series, got.series); i >= 0 {
		t.Fatalf("minute %d: faulted %g != fault-free %g", i, got.series[i], want.series[i])
	}
	if got.ingest.LinesDropped != 0 {
		t.Errorf("clean breaks put %d malformed lines on the wire", got.ingest.LinesDropped)
	}
	if got.reporter.Reconnects == 0 {
		t.Error("fault plan fired no reconnects")
	}
}

// TestFaultReconnectOvertake reproduces, on every run, the loss a
// reconnect used to cause: connection A still has buffered reports when
// connection B replays the tail A already delivered and carries on. With
// the ingest worker parked and a one-slot queue both readers block on
// the queue, and a queue shared first-come would interleave them, the
// recorder rejecting every report of A that B's overtook. The
// collector's per-gateway turn (awaitTurn) holds B back until A is done.
func TestFaultReconnectOvertake(t *testing.T) {
	store := NewStore(mon, time.Minute)
	gate, entered := make(chan struct{}), make(chan struct{})
	var once sync.Once
	var ingested []int // minute of every accepted report, in ingest order
	store.OnReport(func(rep gateway.Report) {
		once.Do(func() { close(entered) })
		<-gate
		ingested = append(ingested, int(rep.Timestamp.Sub(mon)/time.Minute))
	})
	col, err := NewCollectorConfig("127.0.0.1:0", store, CollectorConfig{QueueSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	const minutes, split, tail = 100, 50, DefaultResendTail
	em := gateway.NewEmitter("gwR")
	lines := make([][]byte, minutes)
	for m := range lines {
		lines[m] = gatewayJSONLine(t, em.Emit(mon.Add(time.Duration(m)*time.Minute),
			[]gateway.DeviceMinute{{MAC: "m1", InBytes: 10, OutBytes: 1}}))
	}
	send := func(lines [][]byte) {
		t.Helper()
		conn, err := net.Dial("tcp", col.Addr())
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range lines {
			if _, err := conn.Write(l); err != nil {
				t.Fatal(err)
			}
		}
		if err := conn.Close(); err != nil {
			t.Fatal(err)
		}
	}
	send(lines[:split]) // A: minutes 0–49, all but a couple still unread
	<-entered
	send(lines[split-tail:]) // B: replays 42–49, continues to 99
	deadline := time.Now().Add(5 * time.Second)
	for col.Stats().ConnsOpened != 2 {
		if time.Now().After(deadline) {
			t.Fatal("second connection never accepted")
		}
		time.Sleep(time.Millisecond)
	}
	// Not what makes the fixed collector pass — it is correct whenever
	// the gate opens — but what made the unfixed one fail every time:
	// B's reader gets to the queue before A's backlog starts to move.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	if err := col.Drain(); err != nil {
		t.Fatal(err)
	}
	for m := 0; m < len(ingested) && m < minutes; m++ {
		if ingested[m] != m {
			t.Fatalf("report %d ingested is minute %d: out of order (%v)", m, ingested[m], ingested)
		}
	}
	if st := col.Stats(); len(ingested) != minutes || st.ReportsIngested != minutes || st.IngestErrors != tail {
		t.Errorf("ingested %d reports (stats %d) and rejected %d, want %d and the %d replayed duplicates",
			len(ingested), st.ReportsIngested, st.IngestErrors, minutes, tail)
	}
}

// turnFixture is a collector, an earlier connection A that never says
// which gateway it carries, and a later connection B that has written
// five reports for gwT — the case awaitTurn can only leave by its bound
// or by A finishing.
type turnFixture struct {
	store *Store
	col   *Collector
	a     net.Conn
	sent  time.Time // just before B's reports were written
}

const turnReports = 5

func newTurnFixture(t *testing.T, readTimeout time.Duration) *turnFixture {
	t.Helper()
	f := &turnFixture{store: NewStore(mon, time.Minute)}
	var err error
	f.col, err = NewCollectorConfig("127.0.0.1:0", f.store, CollectorConfig{ReadTimeout: readTimeout})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.col.Close() })
	if f.a, err = net.Dial("tcp", f.col.Addr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.a.Close() })
	f.awaitStats(t, "connection A accepted", func(st IngestStats) bool { return st.ConnsOpened == 1 })
	b, err := net.Dial("tcp", f.col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	em := gateway.NewEmitter("gwT")
	f.sent = time.Now()
	for m := 0; m < turnReports; m++ {
		line := gatewayJSONLine(t, em.Emit(mon.Add(time.Duration(m)*time.Minute),
			[]gateway.DeviceMinute{{MAC: "m1", InBytes: 10, OutBytes: 1}}))
		if _, err := b.Write(line); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *turnFixture) awaitStats(t *testing.T, what string, ok func(IngestStats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !ok(f.col.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for: %s (stats %+v)", what, f.col.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFaultSilentConnTurnExpires pins awaitTurn's bound: an earlier
// connection that stays open and alive (blank keepalive lines refresh
// its read deadline) but never identifies itself delays a later
// connection's first report by ReadTimeout, not for ever.
func TestFaultSilentConnTurnExpires(t *testing.T) {
	const readTimeout = 200 * time.Millisecond
	stop := make(chan struct{})
	defer close(stop)
	f := newTurnFixture(t, readTimeout)
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-time.After(readTimeout / 10):
				_, _ = f.a.Write([]byte("\n"))
			}
		}
	}()
	f.awaitStats(t, "B's reports ingested once its turn wait expires",
		func(st IngestStats) bool { return st.ReportsIngested == turnReports })
	if waited := time.Since(f.sent); waited < readTimeout {
		t.Errorf("B's reports ingested after %v: not held for A at all (ReadTimeout %v)", waited, readTimeout)
	}
	if st := f.col.Stats(); st.IngestErrors != 0 || st.LinesDropped != 0 {
		t.Errorf("stats %+v: want no rejected report and no dropped line", st)
	}
}

// TestFaultSilentConnNoReadDeadline: with read deadlines off a half-open
// earlier connection never finishes on its own, so the turn wait must
// keep a bound of its own; and the later connection is released the
// moment the earlier one does close.
func TestFaultSilentConnNoReadDeadline(t *testing.T) {
	f := newTurnFixture(t, -1)
	if got := f.col.cfg.turnWait(); got != DefaultReadTimeout {
		t.Fatalf("turnWait with ReadTimeout < 0 = %v, want DefaultReadTimeout", got)
	}
	f.awaitStats(t, "connection B accepted", func(st IngestStats) bool { return st.ConnsOpened == 2 })
	time.Sleep(50 * time.Millisecond)
	if st := f.col.Stats(); st.ReportsIngested != 0 {
		t.Fatalf("%d reports ingested while the earlier connection was open and silent", st.ReportsIngested)
	}
	if err := f.a.Close(); err != nil {
		t.Fatal(err)
	}
	f.awaitStats(t, "B's reports ingested after A closed",
		func(st IngestStats) bool { return st.ReportsIngested == turnReports })
}

// TestFaultDelayedFlushReadTimeout pins the read-deadline path: a sender
// whose flushes stall past the collector's read deadline is disconnected
// and the reporter's reconnect path recovers delivery.
func TestFaultDelayedFlushReadTimeout(t *testing.T) {
	store := NewStore(mon, time.Minute)
	col, err := NewCollectorConfig("127.0.0.1:0", store, CollectorConfig{ReadTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = col.Close() }() // second close after Drain is expected to ErrClosed

	slow := true // only the first connection stalls
	rep, err := DialConfig(col.Addr(), ReporterConfig{
		BaseBackoff: time.Millisecond,
		MaxBackoff:  10 * time.Millisecond,
		Dial: func() (net.Conn, error) {
			raw, err := net.Dial("tcp", col.Addr())
			if err != nil {
				return nil, err
			}
			if slow {
				slow = false
				return faultnet.Wrap(raw, faultnet.Faults{WriteDelay: 250 * time.Millisecond}), nil
			}
			return raw, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	em := gateway.NewEmitter("gwT")
	const minutes = 5
	for m := 0; m < minutes; m++ {
		r := em.Emit(mon.Add(time.Duration(m)*time.Minute), []gateway.DeviceMinute{{MAC: "m1", InBytes: 100, OutBytes: 10}})
		if err := rep.Send(r); err != nil {
			t.Fatalf("send %d: %v", m, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rep.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wantConns := 1 + rep.Stats().Reconnects
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}
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
	in, _ := store.Recorder("gwT").Series("m1", minutes)
	for m := 1; m < minutes; m++ {
		if in.Values[m] != 100 {
			t.Errorf("minute %d = %g, want 100 (report lost to the stalled connection)", m, in.Values[m])
		}
	}
	if st := col.Stats(); st.ConnsOpened < 2 {
		t.Errorf("ConnsOpened = %d, want >= 2 (read deadline should have dropped the stalled conn)", st.ConnsOpened)
	}
}

// TestFaultGarbageFloodBudget pins the per-connection drop budget: a
// connection feeding nothing but garbage is closed after MaxConnDrops
// malformed lines, with each counted, while a healthy client is served.
func TestFaultGarbageFloodBudget(t *testing.T) {
	store := NewStore(mon, time.Minute)
	col, err := NewCollectorConfig("127.0.0.1:0", store, CollectorConfig{MaxConnDrops: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = col.Drain() }() // reporters below close their ends

	conn, err := net.Dial("tcp", col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := conn.Write(faultnet.DefaultGarbage); err != nil {
			break // collector hung up mid-flood: exactly the point
		}
	}
	// The collector must hang up on its own (budget exceeded). Opened
	// first: before the accept, ActiveConns is 0 too.
	deadline := time.Now().Add(5 * time.Second)
	for st := col.Stats(); st.ConnsOpened < 1 || st.ActiveConns != 0; st = col.Stats() {
		if time.Now().After(deadline) {
			t.Fatal("garbage flood connection was never closed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	_ = conn.Close()
	if st := col.Stats(); st.LinesDropped != 11 {
		t.Errorf("LinesDropped = %d, want 11 (budget of 10 + the line that broke it)", st.LinesDropped)
	}

	// A healthy client is still served.
	rep, err := Dial(col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	em := gateway.NewEmitter("gwH")
	for m := 0; m < 2; m++ {
		r := em.Emit(mon.Add(time.Duration(m)*time.Minute), []gateway.DeviceMinute{{MAC: "m1", InBytes: 7, OutBytes: 7}})
		if err := rep.Send(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for store.Recorder("gwH") == nil {
		if time.Now().After(deadline) {
			t.Fatal("healthy client not served after flood")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFaultOversizedLine pins the line-length bound: an oversized line
// is dropped (not buffered without limit) and the stream resyncs to the
// next report.
func TestFaultOversizedLine(t *testing.T) {
	store := NewStore(mon, time.Minute)
	col, err := NewCollectorConfig("127.0.0.1:0", store, CollectorConfig{MaxLineBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = col.Close() }() // drained below; double close is ErrClosed by design

	conn, err := net.Dial("tcp", col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	huge := make([]byte, 64<<10)
	for i := range huge {
		huge[i] = 'x'
	}
	huge[len(huge)-1] = '\n'
	if _, err := conn.Write(huge); err != nil {
		t.Fatal(err)
	}
	em := gateway.NewEmitter("gwO")
	enc := gatewayJSONLine(t, em.Emit(mon, []gateway.DeviceMinute{{MAC: "m1", InBytes: 1, OutBytes: 1}}))
	if _, err := conn.Write(enc); err != nil {
		t.Fatal(err)
	}
	enc = gatewayJSONLine(t, em.Emit(mon.Add(time.Minute), []gateway.DeviceMinute{{MAC: "m1", InBytes: 9, OutBytes: 9}}))
	if _, err := conn.Write(enc); err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for store.Recorder("gwO") == nil {
		if time.Now().After(deadline) {
			t.Fatal("reports after the oversized line were not ingested")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := col.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := col.Stats(); st.LinesDropped != 1 || st.ReportsIngested != 2 {
		t.Errorf("stats = %+v, want 1 dropped line and 2 ingested reports", st)
	}
}
