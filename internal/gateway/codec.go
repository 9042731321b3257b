package gateway

import (
	"encoding/binary"
	"errors"
	"time"
)

// Report payload codec: the binary form a report takes inside a
// telemetry batch frame and inside a store WAL record, each of which adds
// its own header. The report itself is
//
//	uvarint len | bytes   gateway ID
//	varint                timestamp, unix seconds (zigzag)
//	uvarint               device count
//	per device:
//	  uvarint len | bytes   MAC
//	  uvarint len | bytes   name
//	  uvarint               rx counter
//	  uvarint               tx counter

// ErrMalformedReport marks a report payload that does not decode.
var ErrMalformedReport = errors.New("gateway: malformed report payload")

// AppendReport appends the payload encoding of rep to dst.
func AppendReport(dst []byte, rep *Report) []byte {
	dst = appendString(dst, rep.GatewayID)
	dst = binary.AppendVarint(dst, rep.Timestamp.Unix())
	dst = binary.AppendUvarint(dst, uint64(len(rep.Devices)))
	for i := range rep.Devices {
		dc := &rep.Devices[i]
		dst = appendString(dst, dc.MAC)
		dst = appendString(dst, dc.Name)
		dst = binary.AppendUvarint(dst, dc.RxBytes)
		dst = binary.AppendUvarint(dst, dc.TxBytes)
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// Bounds of a ReportDecoder's string table. Payloads come from outside
// the process, so the table keeps only short strings (gateway IDs, MACs
// and names are tens of bytes) and starts over when it fills.
const (
	maxTableLen     = 64
	maxTableStrings = 1 << 14
)

// ReportDecoder decodes report payloads into storage it reuses: reports
// decoded since the last Reset share one array of device rows, and
// NewReportDecoder's bounded table supplies repeated strings (the zero
// value allocates each one), so a warm decoder allocates nothing.
// Arbitrary bytes never panic: every length and count is bounded by the
// bytes left before anything is allocated.
type ReportDecoder struct {
	devs  []DeviceCounters
	table map[string]string
	// buf is the unread rest of the payload being decoded; a malformed
	// field sets bad and empties buf, so every later read fails too.
	buf []byte
	bad bool
}

// NewReportDecoder returns a decoder with a string table.
func NewReportDecoder() *ReportDecoder {
	return &ReportDecoder{table: make(map[string]string)}
}

// Reset recycles the device storage: reports decoded before it must no
// longer be used.
func (d *ReportDecoder) Reset() { d.devs = d.devs[:0] }

// Decode parses one report from the front of data and returns it with the
// bytes after it. The report's Devices stay valid until the next Reset; a
// report without devices has nil Devices.
func (d *ReportDecoder) Decode(data []byte) (rep Report, rest []byte, err error) {
	d.buf, d.bad = data, false
	rep.GatewayID = d.string()
	zz := d.uvarint() // binary.Varint's zigzag, decoded in place
	rep.Timestamp = time.Unix(int64(zz>>1)^-int64(zz&1), 0).UTC()
	ndev := d.uvarint()
	// Each device costs at least 4 bytes: two empty strings and two
	// one-byte counters.
	if ndev > uint64(len(d.buf))/4 {
		d.bad = true
	} else if ndev > 0 {
		start := len(d.devs)
		for i := uint64(0); i < ndev; i++ {
			d.devs = append(d.devs, DeviceCounters{
				MAC: d.string(), Name: d.string(), RxBytes: d.uvarint(), TxBytes: d.uvarint(),
			})
		}
		rep.Devices = d.devs[start:len(d.devs):len(d.devs)]
	}
	rest, d.buf = d.buf, nil
	if d.bad {
		return Report{}, nil, ErrMalformedReport
	}
	return rep, rest, nil
}

func (d *ReportDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.bad, d.buf = true, nil
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// string reads one length-prefixed string, from the table when it is
// there.
func (d *ReportDecoder) string() string {
	n := d.uvarint()
	if n > uint64(len(d.buf)) {
		d.bad, d.buf = true, nil
		return ""
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	if d.table == nil || n > maxTableLen {
		return string(b)
	}
	s, ok := d.table[string(b)]
	if !ok {
		if len(d.table) >= maxTableStrings {
			clear(d.table)
		}
		s = string(b)
		d.table[s] = s
	}
	return s
}
