package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"homesight/internal/gateway"
)

func testReport(gw string, minute int, devs int) gateway.Report {
	rep := gateway.Report{
		GatewayID: gw,
		Timestamp: time.Date(2014, 3, 17, 0, minute, 0, 0, time.UTC),
	}
	for d := 0; d < devs; d++ {
		rep.Devices = append(rep.Devices, gateway.DeviceCounters{
			MAC:     deviceMAC(d),
			Name:    "device-" + string(rune('a'+d)),
			RxBytes: uint64(minute*1000 + d),
			TxBytes: uint64(minute*100 + d),
		})
	}
	return rep
}

func deviceMAC(d int) string {
	const hex = "0123456789abcdef"
	return "aa:bb:cc:dd:ee:" + string([]byte{hex[(d>>4)&0xf], hex[d&0xf]})
}

func TestReportRecordRoundTrip(t *testing.T) {
	reps := []gateway.Report{
		testReport("gw001", 5, 3),
		{GatewayID: "gw002", Timestamp: time.Unix(0, 0).UTC()},
		{GatewayID: "g", Timestamp: time.Unix(-62135596800, 0).UTC(), Devices: []gateway.DeviceCounters{
			{MAC: "", Name: "", RxBytes: 1<<64 - 1, TxBytes: 0},
		}},
	}
	for i, rep := range reps {
		dec, err := decodeRecord(new(gateway.ReportDecoder), appendRecord(nil, &rep)[walHeaderSize:])
		if err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
		if dec.GatewayID != rep.GatewayID || !dec.Timestamp.Equal(rep.Timestamp) ||
			len(dec.Devices) != len(rep.Devices) {
			t.Fatalf("report %d: mismatch: %+v vs %+v", i, dec, rep)
		}
		for j := range rep.Devices {
			if dec.Devices[j] != rep.Devices[j] {
				t.Fatalf("report %d device %d: %+v vs %+v", i, j, dec.Devices[j], rep.Devices[j])
			}
		}
	}
}

func writeTestWAL(t *testing.T, path string, records int) {
	t.Helper()
	w, err := newWALWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < records; m++ {
		rep := testReport("gw001", m, 2)
		if err := w.write(appendRecord(nil, &rep)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
}

func replayCount(t *testing.T, path string) walReplayResult {
	t.Helper()
	res, err := replayWAL(path, func(payload []byte) error {
		_, err := decodeRecord(new(gateway.ReportDecoder), payload)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWALReplayClean(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	writeTestWAL(t, path, 10)
	res := replayCount(t, path)
	if res.records != 10 || res.truncated {
		t.Fatalf("clean replay: got %+v", res)
	}
}

func TestWALReplayTornTail(t *testing.T) {
	corruptions := map[string]func(data []byte) []byte{
		"truncated mid-record": func(d []byte) []byte { return d[:len(d)-3] },
		"truncated mid-header": func(d []byte) []byte { return d[:len(d)-1] },
		"flipped payload byte": func(d []byte) []byte { d[len(d)-1] ^= 0xff; return d },
		"garbage appended":     func(d []byte) []byte { return append(d, 0xde, 0xad, 0xbe, 0xef, 1) },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal")
			writeTestWAL(t, path, 10)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}

			res := replayCount(t, path)
			if !res.truncated {
				t.Fatal("corrupt tail not reported as truncated")
			}
			if res.records < 9 {
				t.Fatalf("recovered only %d of >= 9 intact records", res.records)
			}
			// The recovered file replays cleanly forever after, and the
			// truncation point matches its size.
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() != res.goodBytes {
				t.Fatalf("truncated to %d bytes, replay reported %d good", fi.Size(), res.goodBytes)
			}
			again := replayCount(t, path)
			if again.truncated || again.records != res.records {
				t.Fatalf("re-replay after truncation: %+v, want %d clean records", again, res.records)
			}
		})
	}
}

func TestWALAbandonLosesOnlyUnflushed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := newWALWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 5; m++ {
		rep := testReport("gw001", m, 1)
		if err := w.write(appendRecord(nil, &rep)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.sync(); err != nil {
		t.Fatal(err)
	}
	// Buffered but never flushed: must be lost, cleanly.
	rep := testReport("gw001", 5, 1)
	if err := w.write(appendRecord(nil, &rep)); err != nil {
		t.Fatal(err)
	}
	w.abandon()
	res := replayCount(t, path)
	if res.records != 5 || res.truncated {
		t.Fatalf("after abandon: %+v, want 5 clean records", res)
	}
}

// TestAppendBatchWritesTheWALOfAppends: a frame appended in one call
// leaves the WAL byte for byte as its reports appended one by one — one
// record per report, duplicates included — and the same counters. Reports
// without a gateway id are skipped by both.
func TestAppendBatchWritesTheWALOfAppends(t *testing.T) {
	reps := buildReports("gw001", 4, 60)
	reps = append(reps, reps[10:20]...) // redelivered: duplicate points
	reps = append(reps[:30:30], append([]gateway.Report{{Timestamp: testStart}}, reps[30:]...)...)
	one, batch := t.TempDir(), t.TempDir()
	for _, dir := range []string{one, batch} {
		s, err := Open(Config{Dir: dir, Start: testStart, Sync: SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		skipped := 0
		if dir == one {
			for _, rep := range reps {
				if err := s.Append(rep); errors.Is(err, ErrNoGateway) {
					skipped++
				} else if err != nil {
					t.Fatal(err)
				}
			}
		} else {
			for i := 0; i < len(reps); i += 7 {
				n, err := s.AppendBatch(reps[i:min(i+7, len(reps))])
				if err != nil {
					t.Fatal(err)
				}
				skipped += n
			}
		}
		if skipped != 1 {
			t.Errorf("%s: %d reports skipped, want 1", dir, skipped)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	a, err := os.ReadFile(filepath.Join(one, "wal-00000001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(batch, "wal-00000001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) || len(a) == 0 {
		t.Fatalf("WAL of AppendBatch (%d bytes) differs from the WAL of Append (%d bytes)", len(b), len(a))
	}
	var stats [2]Stats
	for i, dir := range []string{one, batch} {
		s, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		stats[i] = s.Stats()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if stats[0] != stats[1] || stats[0].WALRecords != len(reps)-1 || stats[0].Reports != int64(len(reps)-1) || stats[0].DupPoints == 0 {
		t.Errorf("reopened stats: Append %+v, AppendBatch %+v; want equal, %d records and reports, and some duplicates", stats[0], stats[1], len(reps)-1)
	}
}
