package telemetry

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

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
//	per report: the report payload of gateway.AppendReport, the same
//	bytes a store WAL record carries
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
	for i := range reps {
		dst = gateway.AppendReport(dst, &reps[i])
	}
	payload := dst[start+batchFrameHeader:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, batchCRC))
	return dst
}

// ReadBatchFrame reads one frame from br and returns its verified
// payload. maxBytes bounds the declared payload length (0 →
// MaxBatchBytes). io.EOF is returned only at a clean frame boundary; a
// stream that ends mid-frame is io.ErrUnexpectedEOF, and a CRC mismatch
// is ErrFrameCorrupt.
func ReadBatchFrame(br *bufio.Reader, maxBytes int) ([]byte, error) {
	return readBatchFrame(br, maxBytes, nil)
}

// readBatchFrame is ReadBatchFrame reading into buf's storage when it has
// the room.
func readBatchFrame(br *bufio.Reader, maxBytes int, buf []byte) ([]byte, error) {
	if maxBytes <= 0 {
		maxBytes = MaxBatchBytes
	}
	// Peek reads the header in place, where a local array would escape
	// through io.ReadFull.
	hdr, err := br.Peek(batchFrameHeader)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err // clean EOF between frames stays io.EOF
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	want := binary.LittleEndian.Uint32(hdr[4:])
	_, _ = br.Discard(batchFrameHeader) // the bytes are buffered: cannot fail
	if n > uint32(maxBytes) {
		return nil, fmt.Errorf("%w: declared payload %d bytes exceeds limit %d", ErrFrameCorrupt, n, maxBytes)
	}
	payload := slices.Grow(buf[:0], int(n))[:n]
	if _, err := io.ReadFull(br, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if got := crc32.Checksum(payload, batchCRC); got != want {
		return nil, fmt.Errorf("%w: CRC mismatch (got %08x want %08x)", ErrFrameCorrupt, got, want)
	}
	return payload, nil
}

// DecodeBatchFrame decodes a verified frame payload into reports. Every
// length and count is bounded by the payload size before allocation, so
// arbitrary input (the fuzz target's diet) cannot cause a panic or an
// oversized allocation — only an ErrFrameCorrupt.
func DecodeBatchFrame(payload []byte) ([]gateway.Report, error) {
	var d FrameDecoder
	return d.decode(payload)
}

// FrameDecoder reads one connection's frames into storage it reuses —
// payload, reports, device rows and (NewFrameDecoder's bounded string
// table) gateway IDs, MACs and names — so a warm frame allocates nothing.
// The zero value allocates every string.
type FrameDecoder struct {
	payload []byte
	reps    []gateway.Report
	dec     gateway.ReportDecoder
}

// NewFrameDecoder returns a decoder with a string table.
func NewFrameDecoder() *FrameDecoder {
	return &FrameDecoder{dec: *gateway.NewReportDecoder()}
}

// Next reads and decodes the next frame from br, with ReadBatchFrame's
// errors and bound; a payload that does not decode is ErrFrameCorrupt.
// The reports, and their devices, stay valid until the next call.
func (d *FrameDecoder) Next(br *bufio.Reader, maxBytes int) ([]gateway.Report, error) {
	payload, err := readBatchFrame(br, maxBytes, d.payload)
	if err != nil {
		return nil, err
	}
	d.payload = payload
	return d.decode(payload)
}

func (d *FrameDecoder) decode(payload []byte) ([]gateway.Report, error) {
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return nil, fmt.Errorf("%w: truncated header", ErrFrameCorrupt)
	}
	rest := payload[n:]
	if count > uint64(len(rest))/3 { // each report costs ≥ 3 bytes
		return nil, fmt.Errorf("%w: report count %d exceeds payload", ErrFrameCorrupt, count)
	}
	d.dec.Reset()
	reps := slices.Grow(d.reps[:0], int(count))
	for i := uint64(0); i < count; i++ {
		var rep gateway.Report
		var err error
		if rep, rest, err = d.dec.Decode(rest); err != nil {
			return nil, fmt.Errorf("%w: report %d: %w", ErrFrameCorrupt, i, err)
		}
		reps = append(reps, rep)
	}
	d.reps = reps
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrFrameCorrupt, len(rest))
	}
	return reps, nil
}
