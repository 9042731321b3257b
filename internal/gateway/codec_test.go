package gateway

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

func codecReports() []Report {
	return []Report{
		{GatewayID: "gw001", Timestamp: mon.Add(5 * time.Minute), Devices: []DeviceCounters{
			{MAC: "aa:bb:cc:dd:ee:01", Name: "laptop", RxBytes: 5000, TxBytes: 500},
			{MAC: "aa:bb:cc:dd:ee:02", Name: "téléphone", RxBytes: 7, TxBytes: 0},
		}},
		{GatewayID: "gw002", Timestamp: time.Unix(0, 0).UTC()},
		{GatewayID: "g", Timestamp: time.Unix(-62135596800, 0).UTC(), Devices: []DeviceCounters{
			{RxBytes: 1<<64 - 1},
		}},
	}
}

// TestReportCodecRoundTrip: reports decode to what was encoded, with and
// without the string table, back to back in one buffer; a report without
// devices keeps nil Devices.
func TestReportCodecRoundTrip(t *testing.T) {
	var buf []byte
	reps := codecReports()
	for i := range reps {
		buf = AppendReport(buf, &reps[i])
	}
	for _, dec := range []*ReportDecoder{new(ReportDecoder), NewReportDecoder()} {
		rest := buf
		for i, want := range reps {
			var got Report
			var err error
			if got, rest, err = dec.Decode(rest); err != nil {
				t.Fatalf("report %d: %v", i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("report %d:\n got %+v\nwant %+v", i, got, want)
			}
		}
		if len(rest) != 0 {
			t.Fatalf("%d bytes left over", len(rest))
		}
	}
}

// TestReportDecoderReuses: once a decoder has seen a batch, decoding it
// again allocates nothing: device rows reuse their storage after Reset
// and every string comes from the table.
func TestReportDecoderReuses(t *testing.T) {
	var buf []byte
	reps := codecReports()
	for i := range reps {
		buf = AppendReport(buf, &reps[i])
	}
	dec := NewReportDecoder()
	decodeAll := func() {
		dec.Reset()
		for rest := buf; len(rest) > 0; {
			var err error
			if _, rest, err = dec.Decode(rest); err != nil {
				t.Fatal(err)
			}
		}
	}
	decodeAll()
	if a := testing.AllocsPerRun(100, decodeAll); a != 0 {
		t.Errorf("warm decode allocates %v times per batch, want 0", a)
	}
}

// TestReportDecoderBoundsItsTable: the table never holds more than its
// bound however many distinct strings arrive, and long strings skip it.
func TestReportDecoderBoundsItsTable(t *testing.T) {
	dec := NewReportDecoder()
	long := Report{GatewayID: string(make([]byte, maxTableLen+1))}
	if _, _, err := dec.Decode(AppendReport(nil, &long)); err != nil || len(dec.table) != 0 {
		t.Fatalf("long gateway id: err %v, table %d", err, len(dec.table))
	}
	var buf []byte
	for i := 0; i < maxTableStrings+10; i++ {
		rep := Report{GatewayID: string(rune(0x4e00 + i))}
		buf = AppendReport(buf[:0], &rep)
		if _, _, err := dec.Decode(buf); err != nil {
			t.Fatal(err)
		}
		if len(dec.table) > maxTableStrings {
			t.Fatalf("table holds %d strings, bound %d", len(dec.table), maxTableStrings)
		}
	}
}

// TestReportDecoderRejectsMalformed: every truncation of a valid payload,
// and a device count the bytes cannot hold, is ErrMalformedReport.
func TestReportDecoderRejectsMalformed(t *testing.T) {
	reps := codecReports()
	buf := AppendReport(nil, &reps[0])
	for n := 0; n < len(buf); n++ {
		if _, _, err := NewReportDecoder().Decode(buf[:n]); !errors.Is(err, ErrMalformedReport) {
			t.Errorf("payload cut to %d of %d bytes: err %v", n, len(buf), err)
		}
	}
	// gateway "g", timestamp 0, 3 devices declared in 8 bytes: at least 12
	// are needed.
	bad := []byte{1, 'g', 0, 3, 0, 0, 0, 0, 0, 0, 0, 0}
	if _, _, err := new(ReportDecoder).Decode(bad); !errors.Is(err, ErrMalformedReport) {
		t.Errorf("device count past the payload: err %v", err)
	}
}
