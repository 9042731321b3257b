package store

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// offlineBins is the reference aggregation the rollup path must match
// exactly: a map-based fold over the raw points, deliberately structured
// unlike computeRollups/mergeBin so the two cannot share a bug.
func offlineBins(pts []Point, fromSec, toSec, binSec int64) []RollupBin {
	byStart := make(map[int64]*RollupBin)
	for _, p := range pts {
		if p.Ts < fromSec || p.Ts >= toSec {
			continue
		}
		start := p.Ts - ((p.Ts%binSec)+binSec)%binSec
		b := byStart[start]
		if b == nil {
			b = &RollupBin{Start: start}
			byStart[start] = b
		}
		b.Count++
		b.Sum += p.Val
		if p.Val > b.Max {
			b.Max = p.Val
		}
	}
	out := make([]RollupBin, 0, len(byStart))
	for _, b := range byStart {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

func binsEqual(a, b []RollupBin) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// reconcileBins runs every series through both rollup granularities —
// whole campaign and an unaligned mid-campaign window — and demands
// bit-for-bit equality with the offline fold of the raw points.
func reconcileBins(t *testing.T, s *Store, want map[Key][]Point, stage string) {
	t.Helper()
	ctx := context.Background()
	for k, pts := range want {
		for _, g := range []Granularity{Gran3h, Gran8h} {
			binSec := g.seconds()
			res, err := s.Query(ctx, QueryRequest{Key: k, Gran: g})
			if err != nil {
				t.Fatalf("%s: %v gran %s: %v", stage, k, g, err)
			}
			ref := offlineBins(pts, alignDown(res.From.Unix(), binSec), alignUp(res.To.Unix(), binSec), binSec)
			if !binsEqual(ref, res.Bins) {
				t.Fatalf("%s: %v gran %s: bins diverge from offline fold:\n got %+v\nwant %+v",
					stage, k, g, res.Bins, ref)
			}

			// Unaligned window: 100 minutes in, 70 minutes short of the
			// end — the query must widen outward to bin boundaries.
			from := s.Start().Add(100 * time.Minute)
			to := s.campaignEnd().Add(-70 * time.Minute)
			if !to.After(from) {
				continue
			}
			res, err = s.Query(ctx, QueryRequest{Key: k, From: from, To: to, Gran: g, Agg: AggMax})
			if err != nil {
				t.Fatalf("%s: %v gran %s window: %v", stage, k, g, err)
			}
			ref = offlineBins(pts, alignDown(from.Unix(), binSec), alignUp(to.Unix(), binSec), binSec)
			if !binsEqual(ref, res.Bins) {
				t.Fatalf("%s: %v gran %s window: bins diverge from offline fold", stage, k, g)
			}
		}
	}
}

func TestQueryBinsReconcile(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Start: testStart, Sync: SyncAlways, FlushPoints: 700, BlockPoints: 64}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A day and a half: several 3h bins, a split 8h bin at every flush
	// boundary, two gateways so segments hold multiple series.
	reps := append(buildReports("gw001", 3, 2160), buildReports("gw002", 2, 2160)...)
	mid := len(reps) / 2
	for _, rep := range reps[:mid] {
		if err := s.Append(rep); err != nil {
			t.Fatal(err)
		}
	}
	want := expectedPoints(reps[:mid])
	reconcileBins(t, s, want, "memtable")

	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	reconcileBins(t, s, want, "flushed")

	// Second half: rollups must merge across segments and the memtable
	// tail, coalescing the bin each flush boundary split.
	for _, rep := range reps[mid:] {
		if err := s.Append(rep); err != nil {
			t.Fatal(err)
		}
	}
	want = expectedPoints(reps)
	reconcileBins(t, s, want, "segments+memtable")

	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	reconcileBins(t, s, want, "compacted")
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}

	// Crash recovery: the replayed store must answer identically.
	s.Crash()
	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Crash()
	reconcileBins(t, s2, want, "recovered")
}

// TestOpenRefusesUnsupportedSegmentMagic: a segment that does not carry
// the current magic — here the retired pre-rollup format's — fails Open
// with an error naming the magic, instead of being read as if current.
func TestOpenRefusesUnsupportedSegmentMagic(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Start: testStart}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range buildReports("gw001", 1, 60) {
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
	paths, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("want one segment, found %v (err=%v)", paths, err)
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "HSEG0001")
	if err := os.WriteFile(paths[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = Open(cfg)
	if err == nil {
		s.Crash()
		t.Fatal("Open accepted a segment with the HSEG0001 magic")
	}
	if !strings.Contains(err.Error(), `unsupported segment magic "HSEG0001"`) {
		t.Fatalf("Open error %q does not name the unsupported magic", err)
	}
}

func TestQueryBadRequests(t *testing.T) {
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
	ctx := context.Background()
	k := Key{Gateway: "gw001", Device: deviceMAC(0), Dir: DirIn}
	bad := []QueryRequest{
		{Key: k, Limit: -1},
		{Key: k, From: testStart.Add(time.Hour), To: testStart},
		{Key: k, Gran: Granularity(99)},
		{Key: k, Gran: GranRaw, Agg: AggSum},
	}
	for i, req := range bad {
		if _, err := s.Query(ctx, req); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("request %d: got %v, want ErrBadRequest", i, err)
		}
	}
	if _, err := ParseGranularity("5m"); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("ParseGranularity(5m): %v", err)
	}
	if _, err := ParseAggregation("p99"); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("ParseAggregation(p99): %v", err)
	}
}

func TestQueryLimitTruncates(t *testing.T) {
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
	for _, rep := range buildReports("gw001", 1, 600) {
		if err := s.Append(rep); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	k := Key{Gateway: "gw001", Device: deviceMAC(0), Dir: DirIn}
	res, err := s.Query(ctx, QueryRequest{Key: k, Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 10 || !res.Truncated {
		t.Fatalf("raw limit: %d points, truncated=%v", len(res.Points), res.Truncated)
	}
	res, err = s.Query(ctx, QueryRequest{Key: k, Gran: Gran3h, Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bins) != 2 || !res.Truncated {
		t.Fatalf("binned limit: %d bins, truncated=%v", len(res.Bins), res.Truncated)
	}
}

func TestQueryCampaignDefaults(t *testing.T) {
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
	minutes := 600
	for _, rep := range buildReports("gw001", 1, minutes) {
		if err := s.Append(rep); err != nil {
			t.Fatal(err)
		}
	}
	start, end := s.Campaign()
	if !start.Equal(testStart) {
		t.Fatalf("campaign start %v, want %v", start, testStart)
	}
	if want := testStart.Add(time.Duration(minutes) * time.Minute); !end.Equal(want) {
		t.Fatalf("campaign end %v, want %v", end, want)
	}
	ctx := context.Background()
	k := Key{Gateway: "gw001", Device: deviceMAC(0), Dir: DirIn}
	res, err := s.Query(ctx, QueryRequest{Key: k})
	if err != nil {
		t.Fatal(err)
	}
	if !res.From.Equal(start) || !res.To.Equal(end) {
		t.Fatalf("defaulted range [%v, %v), want [%v, %v)", res.From, res.To, start, end)
	}
	// An end past the campaign pads the reconstruction with NaN to it.
	const week = 7 * 24 * 60
	ser, last, err := s.reconstruct(ctx, k, testStart.Add(week*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ser.Values); got != week {
		t.Fatalf("reconstructed series has %d values, want %d", got, week)
	}
	if last != minutes-1 {
		t.Fatalf("last stored index %d, want %d", last, minutes-1)
	}
}
