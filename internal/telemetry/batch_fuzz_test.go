package telemetry

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"
	"time"

	"homesight/internal/gateway"
)

// FuzzBatchFrame feeds arbitrary bytes to the batch-frame payload
// decoder (the bytes a hostile or corrupted peer could put after a
// valid CRC) and, when the input happens to decode, pins the round-trip
// property: re-encoding the decoded reports and decoding again is a
// fixed point. A FrameDecoder decodes every input as DecodeBatchFrame
// does.
func FuzzBatchFrame(f *testing.F) {
	seed := func(reps []gateway.Report) []byte {
		frame := AppendBatchFrame(nil, reps)
		return frame[8:] // payload only; the fuzz target is the decoder
	}
	f.Add(seed(nil))
	f.Add(seed([]gateway.Report{{GatewayID: "gw", Timestamp: time.Unix(60, 0).UTC()}}))
	f.Add(seed([]gateway.Report{{
		GatewayID: "gw-1", Timestamp: time.Unix(1456790400, 0).UTC(),
		Devices: []gateway.DeviceCounters{{MAC: "aa:bb", Name: "tv", RxBytes: 1 << 33, TxBytes: 7}},
	}}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{0x02, 0x00})

	f.Fuzz(func(t *testing.T, payload []byte) {
		reps, err := DecodeBatchFrame(payload)
		// A connection's decoder, string table included, agrees with it.
		tabled, terr := NewFrameDecoder().decode(payload)
		if (err == nil) != (terr == nil) {
			t.Fatalf("DecodeBatchFrame err %v, FrameDecoder err %v", err, terr)
		}
		if err != nil {
			return // malformed input must only error, never panic
		}
		if !reflect.DeepEqual(tabled, reps) {
			t.Fatalf("FrameDecoder decoded %+v, DecodeBatchFrame %+v", tabled, reps)
		}
		frame := AppendBatchFrame(nil, reps)
		got, err := ReadBatchFrame(bufio.NewReader(bytes.NewReader(frame)), 0)
		if err != nil {
			t.Fatalf("re-read of re-encoded frame: %v", err)
		}
		again, err := DecodeBatchFrame(got)
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame: %v", err)
		}
		if len(again) != len(reps) {
			t.Fatalf("round trip changed report count: %d != %d", len(again), len(reps))
		}
		for i := range reps {
			if !reflect.DeepEqual(again[i], reps[i]) {
				t.Fatalf("round trip changed report %d:\n got %+v\nwant %+v", i, again[i], reps[i])
			}
		}
	})
}
