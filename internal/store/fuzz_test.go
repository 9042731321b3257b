package store

import (
	"os"
	"path/filepath"
	"testing"

	"homesight/internal/gateway"
)

// FuzzBlockCodec pins the decoder's safety and the codec's round-trip
// property: decodeBlock never panics on arbitrary input, and whatever
// it accepts re-encodes canonically — decode(encode(decode(x))) ==
// decode(x) point for point.
func FuzzBlockCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeBlock(nil, nil))
	f.Add(encodeBlock(nil, []Point{{Ts: 1395014400, Val: 42}}))
	f.Add(encodeBlock(nil, []Point{
		{Ts: 1395014400, Val: 1000}, {Ts: 1395014460, Val: 2120},
		{Ts: 1395014520, Val: 3240}, {Ts: 1395015000, Val: 3240},
	}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		pts, err := decodeBlock(nil, data)
		if err != nil {
			return
		}
		enc := encodeBlock(nil, pts)
		again, err := decodeBlock(nil, enc)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if !pointsEqual(pts, again) {
			t.Fatalf("round trip mismatch: %v vs %v", pts, again)
		}
	})
}

// FuzzRollupCodec pins the rollup-block decoder the same way: arbitrary
// bytes never panic, and anything it accepts re-encodes canonically.
func FuzzRollupCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeRollupBlock(nil, nil))
	f.Add(encodeRollupBlock(nil, []RollupBin{{Start: 1395014400, Count: 3, Sum: 999, Max: 500}}))
	f.Add(encodeRollupBlock(nil, computeRollups(nil, []Point{
		{Ts: 1395014400, Val: 1000}, {Ts: 1395014460, Val: 2120},
		{Ts: 1395025200, Val: 3240}, {Ts: 1395054000, Val: 3240},
	}, 3*3600)))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		bins, err := decodeRollupBlock(nil, data)
		if err != nil {
			return
		}
		enc := encodeRollupBlock(nil, bins)
		again, err := decodeRollupBlock(nil, enc)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if !binsEqual(bins, again) {
			t.Fatalf("round trip mismatch: %v vs %v", bins, again)
		}
	})
}

// FuzzWALReplay pins crash recovery against arbitrary WAL file
// contents: replay never panics, truncation always lands on a record
// boundary it can re-replay cleanly, and the record decoder survives
// whatever payload the framing let through.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	var wal []byte
	for m := 0; m < 3; m++ {
		rep := testReport("gw001", m, 2)
		wal = appendRecord(wal, &rep)
	}
	f.Add(wal)
	f.Add(wal[:len(wal)-4])
	f.Add(append(append([]byte(nil), wal...), 0xde, 0xad))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		records := 0
		dec := gateway.NewReportDecoder()
		res, err := replayWAL(path, func(payload []byte) error {
			// The record decoder must tolerate any framed payload.
			dec.Reset()
			_, _ = decodeRecord(dec, payload)
			records++
			return nil
		})
		if err != nil {
			t.Fatalf("replay errored (framing must truncate, not fail): %v", err)
		}
		if res.records != records {
			t.Fatalf("result says %d records, callback saw %d", res.records, records)
		}
		if res.goodBytes > int64(len(data)) {
			t.Fatalf("goodBytes %d beyond input (%d bytes)", res.goodBytes, len(data))
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != res.goodBytes {
			t.Fatalf("file is %d bytes, replay reported %d good (truncated=%v)",
				fi.Size(), res.goodBytes, res.truncated)
		}
		// A recovered WAL replays cleanly forever after.
		again, err := replayWAL(path, func([]byte) error { return nil })
		if err != nil {
			t.Fatalf("re-replay errored: %v", err)
		}
		if again.truncated || again.records != res.records {
			t.Fatalf("re-replay not clean: %+v after %+v", again, res)
		}
	})
}
