package store

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"homesight/internal/gateway"
	"homesight/internal/obs"
	"homesight/internal/synth"
	"homesight/internal/timeseries"
)

var testStart = time.Date(2014, 3, 17, 0, 0, 0, 0, time.UTC)

// buildReports emits `minutes` reports for one gateway with `devs`
// devices of mildly varying traffic, through the same Emitter a
// simulated gateway uses. Devices disconnect on some minutes, creating
// the reporting gaps the reconstruction must handle.
func buildReports(gw string, devs, minutes int) []gateway.Report {
	em := gateway.NewEmitter(gw)
	reps := make([]gateway.Report, 0, minutes)
	for m := 0; m < minutes; m++ {
		var dm []gateway.DeviceMinute
		for d := 0; d < devs; d++ {
			in, out := float64(120+10*d+m%7), float64(40+m%5)
			if (m+3*d)%13 == 0 {
				continue // disconnected this minute: absent from the report
			}
			if m%60 >= 50 && m%60 < 55 { // evening-style burst
				in, out = 2e6+float64(m%997), 9e4+float64(m%97)
			}
			dm = append(dm, gateway.DeviceMinute{
				MAC: deviceMAC(d), Name: fmt.Sprintf("host-%d", d),
				InBytes: in, OutBytes: out,
			})
		}
		reps = append(reps, em.Emit(testStart.Add(time.Duration(m)*time.Minute), dm))
	}
	return reps
}

// expectedPoints replays reports in memory into the per-series point
// streams the store must reproduce.
func expectedPoints(reps []gateway.Report) map[Key][]Point {
	want := make(map[Key][]Point)
	for _, rep := range reps {
		ts := rep.Timestamp.Unix()
		for _, dc := range rep.Devices {
			for dir, val := range [2]uint64{dc.RxBytes, dc.TxBytes} {
				k := Key{Gateway: rep.GatewayID, Device: dc.MAC, Dir: Direction(dir)}
				pts := want[k]
				if len(pts) > 0 && ts <= pts[len(pts)-1].Ts {
					continue
				}
				want[k] = append(pts, Point{Ts: ts, Val: val})
			}
		}
	}
	return want
}

// reconstructSeries rebuilds a device's per-minute in/out delta series
// over the campaign, one reconstruction per direction, padded to n
// samples with NaN. Nil results mean the device is unknown to the store.
func reconstructSeries(t *testing.T, s *Store, gw, mac string, n int) (in, out *timeseries.Series) {
	t.Helper()
	var ser [2]*timeseries.Series
	known := false
	for dir := 0; dir < 2; dir++ {
		res, last, err := s.reconstruct(context.Background(), Key{Gateway: gw, Device: mac, Dir: Direction(dir)}, s.campaignEnd())
		if err != nil {
			t.Fatalf("reconstruct %s/%s dir %d: %v", gw, mac, dir, err)
		}
		if last >= 0 {
			known = true
		}
		vals := append([]float64(nil), res.Values...)
		for len(vals) < n {
			vals = append(vals, math.NaN())
		}
		ser[dir] = timeseries.New(s.Start(), s.Step(), vals[:n])
	}
	if !known {
		return nil, nil
	}
	return ser[0], ser[1]
}

// queryPoints reads one series' raw points through the Query API; zero
// from/to default to the whole campaign.
func queryPoints(t *testing.T, s *Store, k Key, from, to time.Time) []Point {
	t.Helper()
	res, err := s.Query(context.Background(), QueryRequest{Key: k, From: from, To: to})
	if err != nil {
		t.Fatalf("query %v: %v", k, err)
	}
	return res.Points
}

// verifyContents checks that every expected series is stored exactly,
// in order, with zero duplicates.
func verifyContents(t *testing.T, s *Store, want map[Key][]Point) {
	t.Helper()
	for k, pts := range want {
		got := queryPoints(t, s, k, time.Time{}, time.Time{})
		if !pointsEqual(pts, got) {
			t.Fatalf("%v: stored stream differs: %d points vs %d expected", k, len(got), len(pts))
		}
	}
}

func TestStoreAppendQuery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Start: testStart, FlushPoints: 300, BlockPoints: 64})
	if err != nil {
		t.Fatal(err)
	}
	reps := append(buildReports("gw001", 3, 240), buildReports("gw002", 2, 240)...)
	for _, rep := range reps {
		if err := s.Append(rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want := expectedPoints(reps)
	verifyContents(t, s, want)

	// Range query: a two-hour window mid-campaign.
	k := Key{Gateway: "gw001", Device: deviceMAC(1), Dir: DirIn}
	from, to := testStart.Add(60*time.Minute), testStart.Add(180*time.Minute)
	got := queryPoints(t, s, k, from, to)
	var wantRange []Point
	for _, p := range want[k] {
		if p.Ts >= from.Unix() && p.Ts < to.Unix() {
			wantRange = append(wantRange, p)
		}
	}
	if !pointsEqual(wantRange, got) {
		t.Fatalf("range select: %d points, want %d", len(got), len(wantRange))
	}

	// Re-appending the whole stream is dropped by the watermark.
	st0 := s.Stats()
	for _, rep := range reps {
		if err := s.Append(rep); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Points != st0.Points {
		t.Fatalf("replayed appends added points: %d -> %d", st0.Points, st.Points)
	}
	if st.DupPoints == st0.DupPoints {
		t.Fatal("replayed appends not counted as duplicates")
	}
	verifyContents(t, s, want)

	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	if st.Segments == 0 {
		t.Fatal("expected at least one segment after Flush")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreRecoveryAfterClose(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Start: testStart, FlushPoints: 1 << 20}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reps := buildReports("gw001", 2, 100)
	for _, rep := range reps {
		if err := s.Append(rep); err != nil {
			t.Fatal(err)
		}
	}
	// No Flush: everything lives in the WAL and memtable.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if st := s2.Stats(); st.WALRecords != len(reps) {
		t.Fatalf("replayed %d WAL records, want %d", st.WALRecords, len(reps))
	}
	verifyContents(t, s2, expectedPoints(reps))
	if name := s2.DeviceName("gw001", deviceMAC(1)); name != "host-1" {
		t.Fatalf("device name not recovered: %q", name)
	}
}

func TestStoreCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Start: testStart, Sync: SyncAlways, FlushPoints: 250, BlockPoints: 32}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reps := buildReports("gw001", 3, 200)
	for _, rep := range reps {
		if err := s.Append(rep); err != nil {
			t.Fatal(err)
		}
	}
	// Crash without flushing: with SyncAlways every acknowledged report
	// must survive, across whatever mix of segments and WAL tail the
	// background flusher reached.
	s.Crash()

	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	verifyContents(t, s2, expectedPoints(reps))
	if err := s2.Verify(); err != nil {
		t.Fatal(err)
	}
	// Crash again immediately: recovery must be idempotent.
	s2.Crash()
	s3, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Crash()
	verifyContents(t, s3, expectedPoints(reps))
}

func TestStoreRecoveryDedupsFlushedWAL(t *testing.T) {
	// The crash window between segment install and WAL deletion: put the
	// same data in both a segment and a WAL file, reopen, and demand zero
	// duplicates.
	dir := t.TempDir()
	cfg := Config{Dir: dir, Start: testStart, FlushPoints: 1 << 20}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reps := buildReports("gw001", 2, 50)
	for _, rep := range reps {
		if err := s.Append(rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil { // leaves wal-00000001.wal behind
		t.Fatal(err)
	}
	walCopy, err := os.ReadFile(filepath.Join(dir, "wal-00000001.wal"))
	if err != nil {
		t.Fatal(err)
	}

	s, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil { // data now in seg-00000001.seg, WAL deleted
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Resurrect the WAL, as if the crash hit before deletion.
	if err := os.WriteFile(filepath.Join(dir, "wal-00000001.wal"), walCopy, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	verifyContents(t, s, expectedPoints(reps))
	if st := s.Stats(); st.DupPoints == 0 {
		t.Fatal("expected the resurrected WAL to be deduplicated against the segment")
	}
}

func TestStoreTornWALTailOnOpen(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Start: testStart}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reps := buildReports("gw001", 1, 30)
	for _, rep := range reps {
		if err := s.Append(rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "wal-00000001.wal")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	s, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	st := s.Stats()
	if st.WALTruncations != 1 {
		t.Fatalf("WALTruncations = %d, want 1", st.WALTruncations)
	}
	if st.WALRecords != len(reps)-1 {
		t.Fatalf("recovered %d records, want %d (last one torn)", st.WALRecords, len(reps)-1)
	}
	verifyContents(t, s, expectedPoints(reps[:len(reps)-1]))
}

// nanEqual compares two float slices treating NaN == NaN.
func nanEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.IsNaN(a[i]) != math.IsNaN(b[i]) || (!math.IsNaN(a[i]) && a[i] != b[i]) {
			return false
		}
	}
	return true
}

func TestDeviceSeriesMatchesRecorder(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Start: testStart, FlushPoints: 200, BlockPoints: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	rec := gateway.NewRecorder(testStart, time.Minute)
	reps := buildReports("gw001", 3, 300)
	for _, rep := range reps {
		if err := s.Append(rep); err != nil {
			t.Fatal(err)
		}
		if err := rec.Ingest(rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 3; d++ {
		mac := deviceMAC(d)
		wantIn, wantOut := rec.Series(mac, 300)
		gotIn, gotOut := reconstructSeries(t, s, "gw001", mac, 300)
		if gotIn == nil {
			t.Fatalf("device %s: no stored series", mac)
		}
		if !nanEqual(wantIn.Values, gotIn.Values) || !nanEqual(wantOut.Values, gotOut.Values) {
			t.Fatalf("device %s: reconstructed series differ from Recorder", mac)
		}
		if !gotIn.Start.Equal(wantIn.Start) || gotIn.Step != wantIn.Step {
			t.Fatalf("device %s: grid mismatch", mac)
		}
	}
}

func TestStoreCompact(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Start: testStart, FlushPoints: 100, BlockPoints: 16})
	if err != nil {
		t.Fatal(err)
	}
	reps := buildReports("gw001", 2, 100)
	want := expectedPoints(reps)
	// Flush in four waves to force several segments.
	for i := 0; i < 4; i++ {
		for _, rep := range reps[i*25 : (i+1)*25] {
			if err := s.Append(rep); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Segments < 2 {
		t.Fatalf("want >= 2 segments before compaction, got %d", st.Segments)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Segments != 1 {
		t.Fatalf("want 1 segment after compaction, got %d", st.Segments)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	verifyContents(t, s, want)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Compaction survives reopen.
	s, err = Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	verifyContents(t, s, want)
}

func TestVerifyDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Start: testStart}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range buildReports("gw001", 2, 60) {
		if err := s.Append(rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(dir, "seg-00000001.seg")
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(segMagic)+6] ^= 0x01 // flip a bit inside the first block
	if err := os.WriteFile(segPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = Open(cfg)
	if err != nil {
		t.Fatal(err) // footer is intact; open succeeds
	}
	defer s.Crash()
	if err := s.Verify(); err == nil {
		t.Fatal("Verify accepted a corrupted block")
	} else if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("Verify error %v, want a checksum complaint", err)
	}
}

func TestStoreMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Start: testStart, Metrics: NewMetrics(reg), Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	reps := buildReports("gw001", 2, 30)
	for _, rep := range reps {
		if err := s.Append(rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	var points int64
	for _, pts := range expectedPoints(reps) {
		points += int64(len(pts))
	}
	if st := s.Stats(); st.Reports != 30 || st.Points != points {
		t.Errorf("Stats counts %d reports and %d points, want 30 and %d", st.Reports, st.Points, points)
	}
	for _, want := range []string{
		"homesight_store_appends_total 30",
		"homesight_store_flushes_total 1",
		"homesight_store_segments 1",
		"# TYPE homesight_store_wal_fsync_seconds histogram",
		"homesight_store_compression_ratio",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// storeSynthCorpus streams a synthetic deployment through the emitter
// into the store — the corpus the compression acceptance criterion is
// measured on.
func storeSynthCorpus(t testing.TB, s *Store, homes, weeks int) int {
	t.Helper()
	dep := synth.NewDeployment(synth.Config{Seed: 7, Homes: homes, Weeks: weeks, Start: testStart})
	reports := 0
	for i := 0; i < homes; i++ {
		h := dep.Home(i)
		em := gateway.NewEmitter(h.ID)
		traffic := h.Traffic()
		minutes := dep.Config().Minutes()
		dm := make([]gateway.DeviceMinute, 0, len(traffic))
		for m := 0; m < minutes; m++ {
			dm = dm[:0]
			for _, dt := range traffic {
				dm = append(dm, gateway.DeviceMinute{
					MAC:      dt.Spec.Device.MAC,
					Name:     dt.Spec.Device.Name,
					InBytes:  dt.In.Values[m],
					OutBytes: dt.Out.Values[m],
				})
			}
			rep := em.Emit(testStart.Add(time.Duration(m)*time.Minute), dm)
			if len(rep.Devices) == 0 {
				continue
			}
			if err := s.Append(rep); err != nil {
				t.Fatal(err)
			}
			reports++
		}
	}
	return reports
}

func TestCompressionRatioOnSynthCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("synth corpus generation is seconds of work")
	}
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Start: testStart})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	storeSynthCorpus(t, s, 3, 1)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.SegmentPoints == 0 {
		t.Fatal("no points flushed")
	}
	t.Logf("synth corpus: %d points, %.2fx compression (%d segment bytes)",
		st.SegmentPoints, st.Compression, st.SegmentBytes)
	if st.Compression < 5 {
		t.Fatalf("compression %.2fx on the synthetic corpus, want >= 5x", st.Compression)
	}
}
