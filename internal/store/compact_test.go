package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"homesight/internal/gateway"
)

// flushInWaves appends reps in `waves` equal slices, flushing after
// each, so the store ends with one segment per wave.
func flushInWaves(t *testing.T, s *Store, reps []gateway.Report, waves int) {
	t.Helper()
	per := len(reps) / waves
	for w := 0; w < waves; w++ {
		if _, err := s.AppendBatch(reps[w*per : (w+1)*per]); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Segments != waves {
		t.Fatalf("%d segments after %d flushes", st.Segments, waves)
	}
}

// segFiles lists the store directory's segment files, ascending.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// tempFiles lists the *.tmp files left in the store directory.
func tempFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*"+tmpSuffix))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// TestCompactEqualsOneFlush pins the single segment writer: compacting
// four flushed segments yields the very bytes one flush of the same
// reports writes. gw002 reports only in the last two waves, so the
// merge meets keys absent from some segments.
func TestCompactEqualsOneFlush(t *testing.T) {
	gw1 := buildReports("gw001", 3, 400)
	gw2 := buildReports("gw002", 2, 200)
	reps := append([]gateway.Report(nil), gw1[:200]...)
	for m := 200; m < 400; m++ {
		reps = append(reps, gw1[m], gw2[m-200])
	}
	// segBytes flushes reps[cuts[i-1]:cuts[i]] for each i, compacts and
	// returns the one segment file left.
	segBytes := func(cuts ...int) []byte {
		dir := t.TempDir()
		s, err := Open(Config{Dir: dir, Start: testStart, FlushPoints: 1 << 20, BlockPoints: 16})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Crash()
		for w := 1; w < len(cuts); w++ {
			if _, err := s.AppendBatch(reps[cuts[w-1]:cuts[w]]); err != nil {
				t.Fatal(err)
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		paths := segFiles(t, dir)
		if len(paths) != 1 {
			t.Fatalf("%d segment files after compaction, want 1", len(paths))
		}
		data, err := os.ReadFile(paths[0])
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	// Two reports per minute past report 200.
	compacted, flushed := segBytes(0, 100, 200, 400, len(reps)), segBytes(0, len(reps))
	if !bytes.Equal(compacted, flushed) {
		t.Fatalf("compacted segment (%d bytes) differs from one flush (%d bytes)", len(compacted), len(flushed))
	}
}

// TestCompactMemoryIsOneSeries holds compaction to streaming: at 256
// series × 4096 points in four segments, everything Compact allocates
// stays under 16 B per compacted point — the size of one decoded point,
// so a compaction that decodes every series before writing cannot pass.
func TestCompactMemoryIsOneSeries(t *testing.T) {
	const devs, minutes = 128, 4096
	em := gateway.NewEmitter("gw001")
	reps := make([]gateway.Report, minutes)
	dm := make([]gateway.DeviceMinute, devs)
	for m := range reps {
		for d := range dm {
			dm[d] = gateway.DeviceMinute{
				MAC: deviceMAC(d), Name: fmt.Sprintf("host-%d", d),
				InBytes: float64(100 + (m*7+d)%251), OutBytes: float64(30 + (m+d)%17),
			}
		}
		reps[m] = em.Emit(testStart.Add(time.Duration(m)*time.Minute), dm)
	}
	s, err := Open(Config{Dir: t.TempDir(), Start: testStart, Sync: SyncNever, FlushPoints: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Crash()
	flushInWaves(t, s, reps, 4)
	reps = nil

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	st := s.Stats()
	if st.Segments != 1 || st.SegmentPoints != 2*devs*minutes {
		t.Fatalf("after compaction: %d segments, %d points; want 1, %d", st.Segments, st.SegmentPoints, 2*devs*minutes)
	}
	perPoint := float64(after.TotalAlloc-before.TotalAlloc) / float64(st.SegmentPoints)
	t.Logf("Compact allocated %.2f B per compacted point", perPoint)
	if perPoint > 16 {
		t.Fatalf("Compact allocated %.2f B per compacted point, want <= 16 (one series at a time)", perPoint)
	}
}

// TestCompactFailureKeepsSegments corrupts a block of the last old
// segment: Compact must fail on its checksum, remove its temp file and
// leave the four old segments installed.
func TestCompactFailureKeepsSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Start: testStart, FlushPoints: 1 << 20, BlockPoints: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Crash()
	flushInWaves(t, s, buildReports("gw001", 3, 200), 4)

	// The last series' first block: the merge has streamed every other
	// key into the temp file by the time it gets there.
	paths := segFiles(t, dir)
	last, err := openSegment(paths[len(paths)-1], 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	off := last.series[len(last.series)-1].blocks[0].off + 4
	_ = last.close()
	f, err := os.OpenFile(paths[len(paths)-1], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if err := s.Compact(); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("Compact over a corrupt block: %v, want a checksum error", err)
	}
	if tmp := tempFiles(t, dir); len(tmp) != 0 {
		t.Fatalf("failed Compact left %v", tmp)
	}
	if st := s.Stats(); st.Segments != 4 {
		t.Fatalf("%d segments installed after a failed Compact, want 4", st.Segments)
	}
	if got := segFiles(t, dir); len(got) != 4 {
		t.Fatalf("%d segment files after a failed Compact, want 4", len(got))
	}
}

// TestOpenIgnoresLeftoverTempSegment: a crash mid-flush or mid-compaction
// leaves seg-NNNNNNNN.seg.tmp, which is not a segment. Open must neither
// mistake it for one nor keep it.
func TestOpenIgnoresLeftoverTempSegment(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Start: testStart, FlushPoints: 1 << 20}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reps := buildReports("gw001", 2, 60)
	if _, err := s.AppendBatch(reps); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, "seg-00000001.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-00000099.seg.tmp"), seg[:len(seg)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	s, err = Open(cfg)
	if err != nil {
		t.Fatalf("Open beside a leftover temp segment: %v", err)
	}
	defer s.Crash()
	if st := s.Stats(); st.Segments != 1 {
		t.Fatalf("%d segments, want 1", st.Segments)
	}
	if tmp := tempFiles(t, dir); len(tmp) != 0 {
		t.Fatalf("Open kept %v", tmp)
	}
	verifyContents(t, s, expectedPoints(reps))
}

// TestNamesCatalogWriteIsAtomic: names.json is replaced through a temp
// file and a rename, never rewritten in place, so a crash mid-write
// leaves a torn names.json.tmp beside the previous, intact catalog —
// which Open reads, dropping the temp file.
func TestNamesCatalogWriteIsAtomic(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Start: testStart, FlushPoints: 1 << 20}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if s != nil {
			s.Crash()
		}
	}()
	namesPath := filepath.Join(dir, "names.json")
	reps := buildReports("gw001", 2, 60)
	if _, err := s.AppendBatch(reps[:30]); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	first, err := os.Stat(namesPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendBatch(reps[30:]); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	second, err := os.Stat(namesPath)
	if err != nil {
		t.Fatal(err)
	}
	if os.SameFile(first, second) {
		t.Fatal("flush rewrote names.json in place; want a new file renamed over it")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	good, err := os.ReadFile(namesPath)
	if err != nil {
		t.Fatal(err)
	}
	torn := bytes.ReplaceAll(good, []byte("host-"), []byte("renamed-"))
	if err := os.WriteFile(namesPath+tmpSuffix, torn[:len(torn)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(cfg); err != nil {
		t.Fatalf("Open beside a torn names.json.tmp: %v", err)
	}
	for d := 0; d < 2; d++ {
		if got, want := s.DeviceName("gw001", deviceMAC(d)), fmt.Sprintf("host-%d", d); got != want {
			t.Fatalf("device %d name %q after reopen, want %q", d, got, want)
		}
	}
	if tmp := tempFiles(t, dir); len(tmp) != 0 {
		t.Fatalf("Open kept %v", tmp)
	}
}
