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
// does, and again the same on its second pass, when its string table is
// warm (a seed repeats a gateway with a changed device list).
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
	ts := time.Unix(1456790400, 0).UTC()
	dev := func(mac, name string) gateway.DeviceCounters {
		return gateway.DeviceCounters{MAC: mac, Name: name, RxBytes: 5, TxBytes: 6}
	}
	f.Add(seed([]gateway.Report{
		{GatewayID: "gw-1", Timestamp: ts, Devices: []gateway.DeviceCounters{dev("aa", "tv"), dev("bb", ""), dev("cc", "phone")}},
		{GatewayID: "gw-2", Timestamp: ts, Devices: []gateway.DeviceCounters{dev("aa", "tv")}},
		{GatewayID: "gw-1", Timestamp: ts.Add(time.Minute), Devices: []gateway.DeviceCounters{dev("aa", "tv"), dev("dd", "new"), dev("cc", "phone")}},
		{GatewayID: "gw-1", Timestamp: ts.Add(2 * time.Minute), Devices: []gateway.DeviceCounters{dev("cc", "phone"), dev("aa", "renamed")}},
		{GatewayID: "gw-1", Timestamp: ts.Add(3 * time.Minute)},
		{GatewayID: "gw-1", Timestamp: ts.Add(4 * time.Minute), Devices: []gateway.DeviceCounters{dev("aa", "tv"), dev("aa", "tv"), dev("bb", ""), dev("cc", "phone")}},
	}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{0x02, 0x00})

	f.Fuzz(func(t *testing.T, payload []byte) {
		reps, err := DecodeBatchFrame(payload)
		// A connection's decoder, string table included, agrees with it,
		// cold and warm.
		fd := NewFrameDecoder()
		for pass := 0; pass < 2; pass++ {
			tabled, terr := fd.decode(payload)
			if (err == nil) != (terr == nil) {
				t.Fatalf("pass %d: DecodeBatchFrame err %v, FrameDecoder err %v", pass, err, terr)
			}
			if err == nil && !reflect.DeepEqual(tabled, reps) {
				t.Fatalf("pass %d: FrameDecoder decoded %+v, DecodeBatchFrame %+v", pass, tabled, reps)
			}
		}
		if err != nil {
			return // malformed input must only error, never panic
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
