package telemetry

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"homesight/internal/gateway"
)

// Batch wire protocol: reports travel to the fleet ingest tier
// (internal/fleet) in length-prefixed binary frames, amortizing
// syscalls and framing over many reports. One frame is
//
//	[4] payload length, little-endian uint32
//	[4] CRC32-C (Castagnoli) of the payload
//	[n] payload
//
// — the same header discipline as the store's WAL records, so a torn or
// corrupted frame is detected before decoding. The payload is
//
//	uvarint  report count
//	per report:
//	  uvarint len | bytes   gateway ID
//	  varint                timestamp, unix seconds (zigzag)
//	  uvarint               device count
//	  per device:
//	    uvarint len | bytes   MAC
//	    uvarint len | bytes   name
//	    uvarint               rx counter
//	    uvarint               tx counter
//
// A decoder that sees a bad CRC or malformed payload cannot resync on a
// binary stream, so frame corruption is terminal for the connection:
// the receiver drops the conn and the sender's reconnect + resend
// discipline redelivers (the shard's store dedups replays by watermark).
//
// The protocol is acknowledged: after appending a frame the receiver
// writes a single BatchAck byte back. The sender keeps every
// written-but-unacked frame in a bounded window and blocks when the
// window fills, so a slow receiver exerts backpressure instead of
// letting acknowledged-but-unread frames pile up invisibly in socket
// buffers — without the ack, a kernel buffer can absorb minutes of
// frames the sender has already forgotten, and a crash then loses them
// with no replay source.
const (
	// MaxBatchBytes bounds a frame's declared payload length. A header
	// announcing more is corruption (or an adversarial peer), rejected
	// before any allocation — the WAL's maxRecordBytes discipline.
	MaxBatchBytes = 16 << 20
	// batchFrameHeader is the fixed frame header size: length + CRC.
	batchFrameHeader = 8
	// BatchAck is the one-byte acknowledgement a shard writes back after
	// durably appending a frame (ASCII ACK). Receipt retires the oldest
	// unacked frame from the sender's window.
	BatchAck byte = 0x06
)

// ErrFrameCorrupt marks a frame whose CRC or encoding did not check
// out. Receivers treat it as fatal for the connection.
var ErrFrameCorrupt = errors.New("telemetry: batch frame corrupt")

var batchCRC = crc32.MakeTable(crc32.Castagnoli)

// AppendBatchFrame appends the complete wire frame (header + payload)
// for reps to dst and returns the extended slice. Appending to a
// caller-owned buffer keeps steady-state batch encoding allocation-free.
func AppendBatchFrame(dst []byte, reps []gateway.Report) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // header, patched below
	dst = binary.AppendUvarint(dst, uint64(len(reps)))
	for _, rep := range reps {
		dst = appendBatchString(dst, rep.GatewayID)
		dst = binary.AppendVarint(dst, rep.Timestamp.Unix())
		dst = binary.AppendUvarint(dst, uint64(len(rep.Devices)))
		for _, dc := range rep.Devices {
			dst = appendBatchString(dst, dc.MAC)
			dst = appendBatchString(dst, dc.Name)
			dst = binary.AppendUvarint(dst, dc.RxBytes)
			dst = binary.AppendUvarint(dst, dc.TxBytes)
		}
	}
	payload := dst[start+batchFrameHeader:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, batchCRC))
	return dst
}

func appendBatchString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// ReadBatchFrame reads one frame from br and returns its verified
// payload. maxBytes bounds the declared payload length (0 →
// MaxBatchBytes). io.EOF is returned only at a clean frame boundary; a
// stream that ends mid-frame is io.ErrUnexpectedEOF, and a CRC mismatch
// is ErrFrameCorrupt.
func ReadBatchFrame(br *bufio.Reader, maxBytes int) ([]byte, error) {
	if maxBytes <= 0 {
		maxBytes = MaxBatchBytes
	}
	var hdr [batchFrameHeader]byte
	if _, err := io.ReadFull(br, hdr[:1]); err != nil {
		return nil, err // clean EOF between frames stays io.EOF
	}
	if _, err := io.ReadFull(br, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > uint32(maxBytes) {
		return nil, fmt.Errorf("%w: declared payload %d bytes exceeds limit %d", ErrFrameCorrupt, n, maxBytes)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if got, want := crc32.Checksum(payload, batchCRC), binary.LittleEndian.Uint32(hdr[4:]); got != want {
		return nil, fmt.Errorf("%w: CRC mismatch (got %08x want %08x)", ErrFrameCorrupt, got, want)
	}
	return payload, nil
}

// DecodeBatchFrame decodes a verified frame payload into reports. Every
// length and count is bounded by the payload size before allocation, so
// arbitrary input (the fuzz target's diet) cannot cause a panic or an
// oversized allocation — only an ErrFrameCorrupt.
func DecodeBatchFrame(payload []byte) ([]gateway.Report, error) {
	d := batchDecoder{buf: payload}
	count := d.uvarint()
	if count > uint64(len(payload)) { // each report costs ≥ 1 byte
		return nil, fmt.Errorf("%w: report count %d exceeds payload", ErrFrameCorrupt, count)
	}
	reps := make([]gateway.Report, 0, count)
	for i := uint64(0); i < count; i++ {
		var rep gateway.Report
		rep.GatewayID = d.string()
		rep.Timestamp = time.Unix(d.varint(), 0).UTC()
		devs := d.uvarint()
		if devs > uint64(len(d.buf)) { // each device costs ≥ 1 byte
			return nil, fmt.Errorf("%w: device count %d exceeds payload", ErrFrameCorrupt, devs)
		}
		if devs > 0 {
			rep.Devices = make([]gateway.DeviceCounters, 0, devs)
		}
		for j := uint64(0); j < devs; j++ {
			rep.Devices = append(rep.Devices, gateway.DeviceCounters{
				MAC:     d.string(),
				Name:    d.string(),
				RxBytes: d.uvarint(),
				TxBytes: d.uvarint(),
			})
		}
		reps = append(reps, rep)
		if d.err != nil {
			return nil, fmt.Errorf("%w: truncated report %d", ErrFrameCorrupt, i)
		}
	}
	if d.err != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrFrameCorrupt)
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrFrameCorrupt, len(d.buf))
	}
	return reps, nil
}

// batchDecoder is a cursor over a frame payload with sticky error
// handling: after the first malformed field every read returns zero
// values, and the caller checks err once per report.
type batchDecoder struct {
	buf []byte
	err error
}

func (d *batchDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = ErrFrameCorrupt
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *batchDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.err = ErrFrameCorrupt
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *batchDecoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)) {
		d.err = ErrFrameCorrupt
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}
