package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"homesight/internal/gateway"
)

// WAL record framing: a fixed 8-byte header — little-endian payload
// length then CRC32-C of the payload — followed by the payload. The
// fixed-width header makes torn-tail detection trivial: any record whose
// header or payload runs past EOF, or whose checksum disagrees, marks
// the recovery truncation point.
const walHeaderSize = 8

// maxWALRecord bounds one record. A report carries at most a few
// hundred devices at ~100 bytes each; 16 MiB is three orders of
// magnitude of headroom, and anything larger in a header is corruption,
// not data.
const maxWALRecord = 16 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// walWriter appends length-prefixed, checksummed records to one WAL
// file through a buffered writer. Callers own locking and the fsync
// policy; the writer only distinguishes flush (buffer → kernel) from
// sync (kernel → disk).
type walWriter struct {
	path  string
	f     *os.File
	bw    *bufio.Writer
	bytes int64 // bytes handed to the buffered writer
}

func newWALWriter(path string) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &walWriter{path: path, f: f, bw: bufio.NewWriterSize(f, 1<<16)}, nil
}

// putWALHeader writes the framing header for payload into hdr (which
// must be walHeaderSize bytes).
func putWALHeader(hdr, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
}

// append frames one payload. The payload is copied into the buffer
// before append returns, so callers may reuse it.
func (w *walWriter) append(payload []byte) error {
	var hdr [walHeaderSize]byte
	putWALHeader(hdr[:], payload)
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.bw.Write(payload); err != nil {
		return err
	}
	w.bytes += int64(walHeaderSize + len(payload))
	return nil
}

// flush pushes the buffer to the kernel (survives a process kill, not a
// power cut).
func (w *walWriter) flush() error { return w.bw.Flush() }

// sync flushes and fsyncs (survives a power cut).
func (w *walWriter) sync() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	return w.f.Sync()
}

// close flushes, syncs and closes the file.
func (w *walWriter) close() error {
	if err := w.sync(); err != nil {
		_ = w.f.Close()
		return err
	}
	return w.f.Close()
}

// abandon drops the file handle without flushing — the crash-simulation
// path: everything still in the buffer is lost, exactly as a killed
// process would lose it.
func (w *walWriter) abandon() {
	_ = w.f.Close()
}

// walReplayResult accounts for one file's replay.
type walReplayResult struct {
	records   int
	truncated bool  // a torn or corrupt tail was cut off
	goodBytes int64 // offset the file was truncated to (== size when clean)
}

// replayWAL streams every intact record of the file at path into fn, in
// write order. The first framing violation — truncated header, length
// past EOF, implausible length, checksum mismatch — is treated as the
// torn tail of an interrupted write: the file is truncated to the last
// intact record and replay reports success. This is the crash-recovery
// contract: a record is either wholly recovered or wholly gone, and a
// recovered WAL replays cleanly forever after. Errors from fn abort the
// replay (the store is refusing the data, not the framing).
func replayWAL(path string, fn func(payload []byte) error) (walReplayResult, error) {
	var res walReplayResult
	f, err := os.Open(path)
	if err != nil {
		return res, err
	}
	fi, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return res, err
	}
	remaining := fi.Size()
	br := bufio.NewReaderSize(f, 1<<16)
	var hdr [walHeaderSize]byte
	payload := make([]byte, 0, 4096)
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			// Clean EOF ends the log; a partial header is a torn tail.
			res.truncated = res.truncated || errors.Is(err, io.ErrUnexpectedEOF)
			break
		}
		remaining -= walHeaderSize
		length := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		// Bound by both the record ceiling and the bytes actually left in
		// the file: a corrupt header must not cost a giant allocation.
		if length > maxWALRecord || int64(length) > remaining {
			res.truncated = true
			break
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(br, payload); err != nil {
			res.truncated = true
			break
		}
		remaining -= int64(length)
		if crc32.Checksum(payload, crcTable) != want {
			res.truncated = true
			break
		}
		if err := fn(payload); err != nil {
			_ = f.Close()
			return res, err
		}
		res.records++
		res.goodBytes += int64(walHeaderSize) + int64(length)
	}
	if err := f.Close(); err != nil {
		return res, err
	}
	if res.truncated {
		if err := os.Truncate(path, res.goodBytes); err != nil {
			return res, fmt.Errorf("store: truncating torn WAL tail of %s: %w", path, err)
		}
	}
	return res, nil
}

// Report record payload: the full gateway report in a compact binary
// form (field-by-field varints, length-prefixed strings), so recovery
// restores device names along with the counters. JSON here would cost
// ~10x the bytes and ~20x the CPU on the 1M-report/s append path.

// appendReportRecord appends the binary encoding of rep to dst.
func appendReportRecord(dst []byte, rep gateway.Report) []byte {
	dst = appendString(dst, rep.GatewayID)
	dst = binary.AppendVarint(dst, rep.Timestamp.Unix())
	dst = binary.AppendUvarint(dst, uint64(len(rep.Devices)))
	for _, dc := range rep.Devices {
		dst = appendString(dst, dc.MAC)
		dst = appendString(dst, dc.Name)
		dst = binary.AppendUvarint(dst, dc.RxBytes)
		dst = binary.AppendUvarint(dst, dc.TxBytes)
	}
	return dst
}

// decodeReportRecord parses a report payload. Like decodeBlock it must
// survive arbitrary bytes without panicking: WAL corruption is caught by
// the CRC, but FuzzWALReplay feeds this decoder directly too.
func decodeReportRecord(data []byte) (gateway.Report, error) {
	var rep gateway.Report
	var err error
	if rep.GatewayID, data, err = readString(data); err != nil {
		return rep, fmt.Errorf("store: report record: gateway: %w", err)
	}
	sec, n := binary.Varint(data)
	if n <= 0 {
		return rep, fmt.Errorf("store: report record: bad timestamp")
	}
	data = data[n:]
	rep.Timestamp = time.Unix(sec, 0).UTC()
	ndev, n := binary.Uvarint(data)
	if n <= 0 {
		return rep, fmt.Errorf("store: report record: bad device count")
	}
	data = data[n:]
	// Each device costs at least 4 bytes (two empty strings + two
	// single-byte counters); reject implausible counts before allocating.
	if ndev > uint64(len(data))/4+1 {
		return rep, fmt.Errorf("store: report record declares %d devices in %d bytes", ndev, len(data))
	}
	rep.Devices = make([]gateway.DeviceCounters, 0, ndev)
	for i := uint64(0); i < ndev; i++ {
		var dc gateway.DeviceCounters
		if dc.MAC, data, err = readString(data); err != nil {
			return rep, fmt.Errorf("store: report record: device %d mac: %w", i, err)
		}
		if dc.Name, data, err = readString(data); err != nil {
			return rep, fmt.Errorf("store: report record: device %d name: %w", i, err)
		}
		if dc.RxBytes, n = binary.Uvarint(data); n <= 0 {
			return rep, fmt.Errorf("store: report record: device %d rx", i)
		}
		data = data[n:]
		if dc.TxBytes, n = binary.Uvarint(data); n <= 0 {
			return rep, fmt.Errorf("store: report record: device %d tx", i)
		}
		data = data[n:]
		rep.Devices = append(rep.Devices, dc)
	}
	if len(data) != 0 {
		return rep, fmt.Errorf("store: report record carries %d trailing bytes", len(data))
	}
	return rep, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func readString(data []byte) (string, []byte, error) {
	l, n := binary.Uvarint(data)
	if n <= 0 {
		return "", nil, fmt.Errorf("bad length varint")
	}
	data = data[n:]
	if l > uint64(len(data)) {
		return "", nil, fmt.Errorf("length %d past end (%d bytes left)", l, len(data))
	}
	return string(data[:l]), data[l:], nil
}
